"""One instruction, three implementations of its semantics.

Non-CTI semantics exist three times: ``execute_noncti`` (the
interpretive reference, also the fallback of exit-stub ops and of
operand forms ``compile_noncti`` does not specialize), the
``compile_noncti`` closures (the native interpreter, and the fallback
of instructions without a template) and the templates of the generated
fragment code of ``repro.core.closures``.  Oracle cells hold whole runs
to native's final state; only this test pins each template,
instruction by instruction, to the reference.

Every opcode × operand shape — register, immediate, and memory through
each ``compile_ea`` form at sizes 1/2/4 — runs from random registers,
eflags and memory, with memory targets biased to the edges (last valid
byte/halfword/word, one byte past the end, effective addresses that wrap
past 2**32), read-only regions under protection and watched lines.  All
three must leave equal registers, eflags, memory bytes and watcher calls,
or raise the same exception type and message.  Each form also costs the
same in both engines: ``CostModel.static_cost``.
"""

import itertools
import random
import re
from types import SimpleNamespace

import pytest

from repro.core import closures
from repro.core.bb_builder import build_basic_block
from repro.core.emit import OP_CALL_EXIT, OP_COND_EXIT, OP_EXEC, emit_fragment
from repro.core.fragments import Fragment
from repro.isa.encoder import EncodeError, encode_instr
from repro.isa.opcodes import Opcode
from repro.isa.operands import ImmOperand, MemOperand, RegOperand
from repro.machine.cost import CostModel, CycleCounter, Family
from repro.machine.cpu import CPU, compile_condition
from repro.machine.errors import MachineFault
from repro.machine.exec_ops import compile_noncti, execute_noncti
from repro.machine.interp import Interpreter
from repro.machine.memory import WATCH_SHIFT, Memory
from repro.machine.system import System

from tests.machine.bodies import LINKED, compile_body, compile_run

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


def _by_fragment(instrs, cpu, mem, system):
    fn, ex = compile_run(instrs, mem, system)
    assert fn(ex, cpu) is None


IMPLEMENTATIONS = {
    "execute_noncti": _by_execute,
    "compile_noncti": _by_closure,
    "fragment": _by_fragment,
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


def test_every_templated_opcode_is_swept():
    """No row of the fragment generator escapes this differential
    (LABEL never reaches a run)."""
    assert closures._TEMPLATED - {Opcode.LABEL} <= set(SHAPES)


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


def _load(n, addr, base=None):
    """A load of ``n`` bytes at ``addr``, or at ``base``'s register plus
    the displacement ``addr``."""
    return (Opcode.MOVZX if n < 4 else Opcode.MOV,
            (RegOperand(0), MemOperand(base=base, disp=addr, size=n)))


def _store(n, addr, base=None):
    return (Opcode.MOVB_STORE if n == 1 else Opcode.MOV,
            (MemOperand(base=base, disp=addr, size=n), RegOperand(1)))


# The registers of every edge case: EDX + 0x200 wraps past 2**32 to
# 0x100, EBX (0x10) is the base of the negative sums, ESI * 4 + 0x200
# wraps once to 0x100 and EBX + EDI * 8 + 0x108 is 8 * 2**32 + 0x110.
EDGE_REGS = [0x11223344 + r for r in range(8)]
EDGE_REGS[2] = (0x100 - 0x200) & M32
EDGE_REGS[3] = 0x10
EDGE_REGS[6] = ((1 << 32) + 0x100 - 0x200) // 4
EDGE_REGS[7] = M32

# Unwrapped effective-address sums of -4..-1, a base plus a negative
# displacement: each access faults at the wrapped address, as native
# does, and never reaches the backing store.
NEGATIVE_SUMS = [
    pytest.param(*access(n, total - 0x10, base=3), None,
                 id="%s%d_sum%d" % (access.__name__[1:], n, total))
    for access, sizes in ((_load, (1, 2, 4)), (_store, (1, 4)))
    for n in sizes for total in (-4, -3, -2, -1)
]

EDGES = [
    # The last valid word, halfword and byte; one byte past the end.
    pytest.param(*_load(n, SIZE - n + past), None, id="load%d_%s" % (
        n, "past" if past else "last"))
    for n in (1, 2, 4) for past in (0, 1)
] + [
    pytest.param(*_store(n, SIZE - n + past), None, id="store%d_%s" % (
        n, "past" if past else "last"))
    for n in (1, 4) for past in (0, 1)
] + NEGATIVE_SUMS + [
    # An effective address that wraps past 2**32 to a valid address,
    # through each address form with a register.
    pytest.param(
        Opcode.ADD, (MemOperand(base=2, disp=0x200, size=4), RegOperand(1)),
        None, id="wrap",
    ),
    pytest.param(
        Opcode.ADD,
        (MemOperand(index=6, scale=4, disp=0x200, size=4), RegOperand(1)),
        None, id="wrap_index",
    ),
    pytest.param(
        Opcode.ADD,
        (MemOperand(base=3, index=7, scale=8, disp=0x108, size=4),
         RegOperand(1)),
        None, id="wrap_base_index",
    ),
    pytest.param(
        Opcode.LEA, (RegOperand(0), MemOperand(base=3, disp=-0x14)), None,
        id="lea_negative",
    ),
    pytest.param(
        Opcode.LEA,
        (RegOperand(0), MemOperand(base=3, index=7, scale=8, disp=0x108)),
        None, id="lea_wrap",
    ),
    # A store into a read-only region under protection.
    pytest.param(*_store(4, 0x400), ("protect", 0x400, 0x440), id="readonly"),
    # A store straddling into a watched line: one watcher call.
    pytest.param(*_store(4, 0x43E), ("watch", 0x440, 0x480), id="straddle"),
    pytest.param(*_store(1, 0x43F), ("watch", 0x440, 0x480), id="unwatched"),
]


def _edge(opcode, ops, guard):
    """One edge case against the references, then the fragment's fault
    (or none) from the wrapped effective address."""
    regs = list(EDGE_REGS)
    data = bytes(range(256)) * (SIZE // 256)
    _assert_agree(opcode, ops, regs, 0x8D5, data, guard)
    outcome = _outcome(_by_fragment, [(opcode, ops, 1)],
                       (regs, 0x8D5, data, guard))
    past = opcode != Opcode.LEA and any(
        isinstance(op, MemOperand)
        and _effective_address(op, regs) + op.size > SIZE for op in ops
    )
    if past or (guard and guard[0] == "protect"):
        assert outcome["error"][0] == MachineFault.__name__
    else:
        assert outcome["error"] is None
    if guard and guard[0] == "watch":
        expected = [(0x43E, 4)] if ops[0].disp == 0x43E else []
        assert outcome["watch_calls"] == expected


def _effective_address(op, regs):
    total = op.disp
    if op.base is not None:
        total += regs[op.base]
    if op.index is not None:
        total += regs[op.index] * op.scale
    return total & M32


@pytest.mark.parametrize("opcode, ops, guard", EDGES)
def test_memory_edges(opcode, ops, guard):
    _edge(opcode, ops, guard)


def test_dropped_lower_bound_fails_the_negative_sums(monkeypatch):
    """Negative control: without the ``0 <=`` of its in-range test, an
    access at a negative sum indexes the backing ``mmap`` from its end
    (``_mb[-1]`` is the last byte, ``unpack_from(_mb, -4)`` the last
    word) where native faults.  Every negative-sum case catches it."""
    in_range = closures._in_range
    monkeypatch.setattr(
        closures, "_in_range",
        lambda addr, limit, low: in_range(addr, limit, False),
    )
    monkeypatch.setattr(closures, "_FRAGMENT_CODE_CACHE", {})
    caught = 0
    for param in NEGATIVE_SUMS:
        try:
            _edge(*param.values)
        except AssertionError as exc:
            assert "on error" in str(exc)
            caught += 1
    assert caught == len(NEGATIVE_SUMS)


# ------------------------------------------------------------ boundaries
#
# Generated code wraps a 32-bit value with a comparison whose
# correcting branch runs only when the value wraps, and tests a sign as
# ``> 2147483647``.  Each template therefore has edges at 0, 2**31 and
# 2**32 that random operands reach only by chance: every row runs here
# over each pair of boundary values.

def _boundary(n):
    """The boundary values of an ``n``-byte operand."""
    sign = 1 << (8 * n - 1)
    return (0, 1, sign - 1, sign, (sign << 1) - 1)


_BOUNDARY_ADDR = 0x108  # a memory operand's word: 8 past EBX (0x100)


def _boundary_cases(opcode):
    """``(ops, regs, data)`` for every shape of ``opcode`` in ``SHAPES``
    (one memory operand at most), each operand holding each of its
    boundary values: ``EAX`` or ``ECX`` for a register, the immediate
    itself, or the bytes at ``EBX + 8`` for a memory operand (4 bytes;
    1 for a byte store's destination, 1, 2 and 4 for a MOVSX or MOVZX
    source)."""
    sizes = {Opcode.MOVB_STORE: (1,), Opcode.MOVSX: (1, 2, 4),
             Opcode.MOVZX: (1, 2, 4)}.get(opcode, (4,))
    slots = [slot for slot in SHAPES[opcode] if slot is not None]
    for shapes in itertools.product(*slots):
        if shapes.count("mem") > 1:
            continue
        for n in sizes if "mem" in shapes else (4,):
            widths = [n if shape == "mem" else 4 for shape in shapes]
            for picks in itertools.product(range(5), repeat=len(shapes)):
                regs = [0x11223344 + r for r in range(8)]
                regs[EBX] = _BOUNDARY_ADDR - 8
                data = bytearray(SIZE)
                ops = []
                for slot, (shape, width, pick) in enumerate(
                    zip(shapes, widths, picks)
                ):
                    value = _boundary(width)[pick]
                    if shape == "reg":
                        reg = (EAX, ECX)[slot]
                        regs[reg] = value
                        ops.append(RegOperand(reg))
                    elif shape == "imm":
                        ops.append(ImmOperand(value))
                    else:
                        data[_BOUNDARY_ADDR:_BOUNDARY_ADDR + width] = (
                            value.to_bytes(width, "little")
                        )
                        ops.append(MemOperand(base=EBX, disp=8, size=width))
                yield tuple(ops), regs, bytes(data)


def _boundary_runs(opcodes):
    for opcode in opcodes:
        for ops, regs, data in _boundary_cases(opcode):
            _assert_agree(opcode, ops, regs, 0x8D5, data, None)


@pytest.mark.parametrize(
    "opcode", sorted(closures._ROWS), ids=lambda op: op.name
)
def test_boundary_operands(opcode):
    """Each row over register, immediate and memory operands holding 0,
    1, 2**31 - 1, 2**31 and 2**32 - 1 (a narrower memory operand its
    own width's), every pair: the same registers, eflags, memory and
    faults as ``execute_noncti`` and the closures."""
    _boundary_runs((opcode,))


def test_sign_off_by_one_fails_the_boundary_operands(monkeypatch):
    """Negative control: SF tested as ``> 2147483648`` misses a result
    of exactly 2**31, which the random draws hit only by luck."""
    for name in ("_LOGIC_FLAGS", "_SUB_FLAGS", "_ADD_FLAGS", "_INC_FLAGS",
                 "_DEC_FLAGS"):
        template = getattr(closures, name)
        planted = re.sub(r"(128 if \S+ > )2147483647", r"\g<1>2147483648",
                         template)
        assert planted != template
        monkeypatch.setattr(closures, name, planted)
    monkeypatch.setattr(closures, "_FRAGMENT_CODE_CACHE", {})
    with pytest.raises(AssertionError, match="on eflags"):
        _boundary_runs(sorted(closures._ROWS))


def test_generated_lines_wrap_without_two_digit_masks():
    """A 32-bit wrap in generated code is a comparison: ``&
    4294967295`` appears only on a wrap's out-of-range branch (``else _q
    & 4294967295``, a product, a shift or an address with an index), and
    no sign test masks ``2147483648``.  Every templated form with its
    flags live and dead, each address form, PUSH and POP, a call's push
    and a return's pop."""
    forms = [(opcode, ops) for opcode, _shapes, ops in _cost_forms()]
    for mem in (
        MemOperand(disp=0x100), MemOperand(base=EBX),
        MemOperand(base=EBX, disp=-8), MemOperand(index=ESI, scale=4),
        MemOperand(base=EBX, index=ESI, scale=2, disp=-8),
        MemOperand(base=EBX, index=ESI, disp=8),
    ):
        forms += [
            (Opcode.MOV, (RegOperand(EAX), mem)),
            (Opcode.MOV, (mem, RegOperand(EAX))),
            (Opcode.ADD, (mem, ImmOperand(5))),
            (Opcode.LEA, (RegOperand(EAX), mem)),
        ]
    kill = (Opcode.CMP, (RegOperand(EAX), RegOperand(ECX)), 1)
    lines = [closures._push_source(0x1234), closures._fetch_source(0, "ret")]
    for opcode, ops in forms:
        for run in ([(opcode, ops, 1)], [(opcode, ops, 1), kill]):
            lines.append(closures._run_source(run, 0)[0][0])
    assert any("else _q & 4294967295" in line for line in lines)
    for line in lines:
        fast = line.replace("else _q & 4294967295", "")
        assert "& 4294967295" not in fast and "& 2147483648" not in fast, line


# ------------------------------------------------------------- the cost
#
# A form's static cost is charged by both engines: the native
# interpreter pre-sums it into each decode, and lowering puts it in the
# op the runtime runs.  Both must be CostModel.static_cost, on either
# family.

_COST_PC = 0x100


def _cost_forms():
    """Every SHAPES form as concrete explicit operands: each immediate
    as 1, -1 and a 32-bit value, each memory operand at every size."""
    for opcode, (slot0, slot1) in sorted(SHAPES.items()):
        for shape0 in slot0 or (None,):
            for shape1 in slot1 or (None,):
                shapes = [sh for sh in (shape0, shape1) if sh is not None]
                if shapes.count("mem") > 1:
                    continue
                choices = []
                for index, shape in enumerate(shapes):
                    if shape == "reg":
                        choices.append([RegOperand(EDX if index == 0 else ECX)])
                    elif shape == "imm":
                        choices.append([ImmOperand(v) for v in (1, -1, 0x12345)])
                    else:
                        choices.append([
                            MemOperand(base=EBX, disp=8, size=n)
                            for n in (1, 2, 4)
                        ])
                for ops in itertools.product(*choices):
                    yield opcode, tuple(shapes), ops


@pytest.mark.parametrize(
    "family", list(Family), ids=lambda family: family.name
)
def test_native_and_lowered_cost_are_the_static_cost(family):
    model = CostModel(family)
    checked = set()
    for opcode, shapes, ops in _cost_forms():
        try:
            code = encode_instr(opcode, ops) + encode_instr(Opcode.RET, ())
        except EncodeError:
            continue  # no bytes carry this form
        mem = Memory(SIZE)
        mem.write_bytes(_COST_PC, code)
        native = Interpreter(SimpleNamespace(memory=mem), model)
        native_cost = native._decode(_COST_PC).cost
        ilist = build_basic_block(mem, _COST_PC)
        body = emit_fragment(_COST_PC, Fragment.KIND_BB, ilist, model, None).body
        kind, run = body.code[0]
        assert kind == OP_EXEC and len(run) == 1
        lowered_cost = run[0][2]
        static = model.static_cost(opcode, ops)
        assert native_cost == lowered_cost == static, (
            "%s %r: native %d, lowered %d, static_cost %d"
            % (opcode.name, ops, native_cost, lowered_cost, static)
        )
        checked.add((opcode, shapes))
    assert {
        (Opcode.PUSH, ("reg",)), (Opcode.PUSH, ("mem",)),
        (Opcode.POP, ("reg",)), (Opcode.POP, ("mem",)),
        (Opcode.XCHG, ("mem", "reg")), (Opcode.ADD, ("reg", "imm")),
    } <= checked
    assert {opcode for opcode, _shapes in checked} == set(SHAPES)


# ------------------------------------------------------------ whole runs
#
# Generated runs skip the flags of writers the run overwrites before
# anything reads them, rebuild those flags when a fault unwinds the
# run, and reuse a 4-byte word the run already holds instead of loading
# it again.  These runs compare whole generated runs with the
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


@pytest.mark.parametrize("opcode", _WRITERS, ids=lambda op: op.name)
def test_live_memory_writer_line(opcode):
    """A live flag writer runs its row's eflags template whatever its
    destination: ``inc dword [ebp-32]`` ending a run (its flags live
    there, for the exit that may read them) sets the flags inline, as
    ``inc eax`` does, and calls no ``cpu.flags_*``.  NEG, the shifts
    and IMUL call their CPU method."""
    dst = MemOperand(base=EBP, disp=-32)
    _op, ops = _instruction(random.Random(0), opcode, dst)
    (line,), _prefix, fallbacks, _writers = closures._run_source(
        [(opcode, ops, 1)], 0
    )
    assert not fallbacks
    calls = opcode in (
        Opcode.NEG, Opcode.SHL, Opcode.SHR, Opcode.SAR, Opcode.IMUL,
    )
    assert ("cpu.flags_" in line) == calls, line
    assert ("cpu.eflags = (cpu.eflags & ~2261)" in line) != calls, line


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
    """Run ``instrs`` from ``state`` as one generated run and as
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
    fn, ex = compile_run(instrs, mem, System(), counter)
    error = None
    try:
        assert fn(ex, cpu) is None
    except MachineFault as exc:
        error = str(exc)
    generated = (error, counter.cycles, ex.instructions, cpu.regs,
                 cpu.eflags, mem.read_bytes(0, SIZE))
    fields = ("fault", "cycles", "instructions", "regs", "eflags", "memory")
    for field, got, want in zip(fields, generated, closure):
        assert got == want, "generated %s %r != closures %r in %r" % (
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
    """When a run's k-th instruction faults, the generated code raises
    the closure's exception, flushes the cycles and instructions the
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


# ----------------------------------------------------------- whole bodies
#
# A body's generated function holds every op inline: runs, the
# conditional exits between them, a call exit's push.  A fault on any
# line must charge what running the ops one at a time charges — a run
# its instructions up to the faulting one, an exit its own cost as it
# runs — and rebuild only the faulting run's dead flags.

_PENALTY = CostModel().taken_branch_penalty
_JCCS = sorted(closures._CONDITIONS)
_STACK = 0x1000  # where a call exit's push lands; 0x408 pushes into 0x404


def _by_ops(code, state):
    """Run a body op by op with the ``compile_noncti`` closures, charging
    as the ops are defined: ``(result, error, cycles, instructions, cpu,
    mem)``.  Conditional exits must not be taken; the call exit links to
    ``LINKED``."""
    cpu, mem, _calls = _machine(*state)
    cycles = done = 0
    result = error = None
    try:
        for op in code:
            if op[0] == OP_EXEC:
                for opcode, ops, cost in op[1]:
                    cycles += cost
                    done += 1
                    compile_noncti(opcode, ops, mem, System())(cpu)
            elif op[0] == OP_COND_EXIT:
                cycles += op[3]
                done += 1
                assert not compile_condition(op[1])(cpu.eflags)
            else:
                _kind, _exit, ret_addr, cost = op
                cycles += cost + _PENALTY
                done += 1
                cpu.regs[ESP] = (cpu.regs[ESP] - 4) & M32
                mem.write_u32(cpu.regs[ESP], ret_addr)
                result = LINKED
    except MachineFault as exc:
        error = str(exc)
    return result, error, cycles, done, cpu, mem


def _trace_body(rng, state, runs=3, n=5):
    """Runs of ``n`` instructions separated by conditional exits that
    are not taken (each a random Jcc false on the flags its run leaves),
    ending in a call exit: the op tuples, and the instruction slots as
    ``(op, k)``."""
    code = []
    for index in range(runs):
        code.append((OP_EXEC, tuple(_straight_line(rng, n))))
        if index < runs - 1:
            flags = _by_ops(code, state)[4].eflags
            jcc = rng.choice(
                [jcc for jcc in _JCCS if not compile_condition(jcc)(flags)]
            )
            code.append((OP_COND_EXIT, jcc, index, rng.randrange(1, 9)))
    code.append((OP_CALL_EXIT, runs - 1, 0x4321, rng.randrange(1, 9)))
    slots = [
        (index, k) for index, op in enumerate(code) if op[0] == OP_EXEC
        for k in range(len(op[1]))
    ]
    return code, slots


def _agree_with_ops(code, state):
    """The body's generated function against :func:`_by_ops`: result,
    fault text, cycles, instructions, registers, eflags and memory.
    Returns the fault text."""
    want = _by_ops(code, state)
    cpu, mem, _calls = _machine(*state)
    counter = CycleCounter()
    exits = sum(op[0] != OP_EXEC for op in code)  # one per exit op
    fn, ex = compile_body(code, mem, counter=counter, exits=exits)
    result = error = None
    try:
        result = fn(ex, cpu)
    except MachineFault as exc:
        error = str(exc)
    got = (result, error, counter.cycles, ex.instructions, cpu.regs,
           cpu.eflags, mem.read_bytes(0, SIZE))
    want = want[:4] + (want[4].regs, want[4].eflags,
                       want[5].read_bytes(0, SIZE))
    fields = ("result", "fault", "cycles", "instructions", "regs", "eflags",
              "memory")
    for field, g, w in zip(fields, got, want):
        assert g == w, "body %s %r != ops %r in %r" % (
            field, g if field != "memory" else "...",
            w if field != "memory" else "...", code,
        )
    return error


def _body_faults(rng, fault, bodies):
    """``bodies`` trace bodies, each run clean, with ``fault`` at every
    instruction slot in turn, and with its call exit's push faulting.
    Returns how many faults had a dead flag writer before them in their
    run."""
    after_dead = 0
    for _ in range(bodies):
        regs, eflags, data, guard = _run_state(rng)
        regs[ESP] = _STACK
        state = (regs, eflags, data, guard)
        code, slots = _trace_body(rng, state)
        assert _agree_with_ops(code, state) is None
        for index, k in slots:
            faulty = list(code)
            run = list(code[index][1])
            run[k] = _FAULTS[fault](rng) + (1000 + k,)
            faulty[index] = (OP_EXEC, tuple(run))
            assert _agree_with_ops(faulty, state) is not None
            templated = [closures._templated(op, ops) for op, ops, _c in run]
            dead = closures._dead_writers(run, templated)
            after_dead += any(j < k for j in dead)
        regs = list(regs)
        regs[ESP] = 0x408  # the push lands in the read-only line
        assert "read-only" in _agree_with_ops(
            code, (regs, eflags, data, guard)
        )
    return after_dead


@pytest.mark.parametrize("fault", sorted(_FAULTS))
def test_body_fault_charges_like_ops(fault):
    """A fault anywhere in a body of three runs, two untaken conditional
    exits and a call exit — an instruction of any run, dead flag writers
    before it, or the call exit's push — leaves the registers, eflags
    and memory of running the ops one by one, and their cycles and
    instructions."""
    assert _body_faults(random.Random("body " + fault), fault, bodies=2) > 0


@pytest.mark.slow
@pytest.mark.parametrize("fault", sorted(_FAULTS))
def test_body_fault_sweep(fault):
    _body_faults(random.Random("body sweep " + fault), fault, bodies=60)


def test_noop_fault_path_fails_the_body_faults(monkeypatch):
    """Negative control: without the eflags rebuild, a fault in a later
    run after a dead flag writer leaves stale eflags."""
    monkeypatch.setattr(closures, "_rebuild_eflags", lambda *args: None)
    with pytest.raises(AssertionError, match="eflags"):
        for fault in sorted(_FAULTS):
            _body_faults(random.Random("body " + fault), fault, bodies=2)


def test_inline_conditions_match_compile_condition():
    """Each Jcc's inline source predicate has ``compile_condition``'s
    truth value on every combination of the six arithmetic flags."""
    bits = (1, 4, 16, 64, 128, 2048)  # CF PF AF ZF SF OF
    cpu = CPU()
    for opcode, source in closures._CONDITIONS.items():
        predicate = eval("lambda cpu: " + source)
        for mask in range(64):
            cpu.eflags = sum(b for i, b in enumerate(bits) if mask >> i & 1)
            cpu.eflags |= 0x202  # reserved and IF bits ride along
            assert bool(predicate(cpu)) == bool(
                compile_condition(opcode)(cpu.eflags)
            ), (opcode.name, hex(cpu.eflags))


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
    monkeypatch.setattr(closures, "_FRAGMENT_CODE_CACHE", {})
    with pytest.raises(AssertionError):
        _aliasing_runs(random.Random(64), 200)


def _code_name(run, mem):
    """The file name a one-run body's generated code compiles under."""
    return compile_run(run, mem)[0].__code__.co_filename


def test_each_body_has_its_own_code_name(monkeypatch):
    """A body's generated code compiles under the file name
    ``<fragment N>``, N counting the shapes the process generated.
    cProfile keys entries by file, line and function name, so one
    shared name would merge every body into one entry.  A structurally
    identical body reuses the code, name included."""
    monkeypatch.setattr(closures, "_FRAGMENT_CODE_CACHE", {})
    monkeypatch.setattr(closures, "_code_names", itertools.count())
    mem = Memory(SIZE)
    a, b = RegOperand(0), RegOperand(3)
    adds = [(Opcode.ADD, (a, b), 1), (Opcode.ADD, (b, a), 1)]
    sub = [(Opcode.SUB, (a, b), 1)]
    names = [_code_name(run, mem) for run in (adds, sub, list(adds))]
    assert names == ["<fragment 0>", "<fragment 1>", "<fragment 0>"]


def test_code_cache_evicts_least_recently_used(monkeypatch):
    """The code cache keeps at most ``_CODE_CACHE_LIMIT`` shapes: a new
    shape evicts the least recently used one (a hit counts as a use),
    and an evicted shape comes back under a new name, never one a live
    shape holds."""
    cache = {}
    monkeypatch.setattr(closures, "_FRAGMENT_CODE_CACHE", cache)
    monkeypatch.setattr(closures, "_code_names", itertools.count())
    monkeypatch.setattr(closures, "_CODE_CACHE_LIMIT", 2)
    mem = Memory(SIZE)
    a, b = RegOperand(0), RegOperand(3)
    add, sub, xor = (
        [(opcode, (a, b), 1)] for opcode in (Opcode.ADD, Opcode.SUB, Opcode.XOR)
    )
    names = [_code_name(run, mem) for run in (add, sub, add, xor)]
    # add was used after sub, so xor evicts sub.
    assert names == [
        "<fragment 0>", "<fragment 1>", "<fragment 0>", "<fragment 2>",
    ]
    assert len(cache) == 2
    assert _code_name(add, mem) == "<fragment 0>"
    assert _code_name(sub, mem) == "<fragment 3>"  # evicts xor
    assert [code[0][0].co_filename for code in cache.values()] == [
        "<fragment 0>", "<fragment 3>",
    ]


def _long_loop(blocks):
    """A loop of ``blocks`` blocks, each a few instructions and a
    conditional skip, so a trace records ``MAX_TRACE_BBS`` of them."""
    lines = [".entry main", ".text", "main:", "    mov ecx, 60", "loop:"]
    for k in range(blocks):
        lines += [
            "    add eax, %d" % (k + 1),
            "    mov ebx, eax",
            "    xor ebx, ecx",
            "    add edx, ebx",
            "    test eax, %d" % (1 << (k % 3)),
            "    jz skip%d" % k,
            "    inc esi",
            "skip%d:" % k,
        ]
    lines += ["    dec ecx", "    jnz loop", "    mov ebx, edx",
              "    mov eax, 1", "    syscall"]
    return "\n".join(lines) + "\n"


def _parts(body):
    """The code objects of ``body``'s generated functions."""
    return [
        fn.__code__ for name, fn in body.entry.__globals__.items()
        if name.startswith("_part")
    ]


def test_long_trace_splits_and_runtimes_share_code():
    """Every generated function of a trace of ``MAX_TRACE_BBS`` blocks
    stays within ``_PART_LINES`` source lines or holds one op, so no
    ``compile()`` unit grows with the body; and a second runtime over
    the same program runs the first one's code objects."""
    from repro.asm import assemble
    from repro.core import DynamoRIO, RuntimeOptions
    from repro.core.trace_builder import MAX_TRACE_BBS
    from repro.loader import Process
    from repro.machine.interp import run_native

    image = assemble(_long_loop(MAX_TRACE_BBS + 4))
    native = run_native(Process(image))
    runtimes = []
    for _ in range(2):
        options = RuntimeOptions.with_traces()
        options.trace_threshold = 3
        runtime = DynamoRIO(Process(image), options=options)
        assert runtime.run().output == native.output
        runtimes.append(runtime)
    first, second = (rt.threads[0].trace_cache.fragments for rt in runtimes)
    longest = max(first.values(), key=lambda t: len(t.body.source_tags))
    assert len(longest.body.source_tags) == MAX_TRACE_BBS
    assert len(_parts(longest.body)) > 1
    for trace in first.values():
        for code in _parts(trace.body):
            lines = max(line for _s, _e, line in code.co_lines() if line)
            line_map = trace.body.entry.__globals__["_lines"][code.co_name]
            ops = {at[0] for at in line_map.values()}
            assert lines <= closures._PART_LINES or len(ops) == 1, (
                hex(trace.tag), code.co_name, lines, ops,
            )
    assert first.keys() == second.keys()
    for tag, trace in first.items():
        assert _parts(second[tag].body) == _parts(trace.body)
        assert all(
            one is other for one, other in
            zip(_parts(second[tag].body), _parts(trace.body))
        )


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
    instruction of a straight-line run in the trace at ``loop``.  The
    runtime raises native's whole fault text, the faulting
    instruction's app pc included, and its registers and eflags equal
    native's.  The generated code skips the flags of ``add eax, ecx``
    before the load (``add eax, edx`` overwrites them), so its eflags
    come from the fault path."""
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
    assert text == str(native.value)
    assert text == "read past memory at 0x1fffffe (app pc 0x1019)"
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
    """A fault inside a quantum names the faulting instruction of the
    faulting pass's fragment, not the tag the dispatcher's quantum
    started at (the program entry) nor the fragment's own: under
    ``bb_cache_only`` the ``loop`` block at 0x1014 faults on its third
    instruction, ``mov edx, [esi]`` at 0x1019, as native does."""
    from repro.asm import assemble
    from repro.core import DynamoRIO, RuntimeOptions
    from repro.loader import Process

    image = assemble(FAULTING_LOOP)
    assert image.symbol("loop") == 0x1014
    runtime = DynamoRIO(Process(image), options=RuntimeOptions.bb_cache_only())
    with pytest.raises(MachineFault) as fault:
        runtime.run()
    assert str(fault.value) == "read past memory at 0x1fffffe (app pc 0x1019)"
