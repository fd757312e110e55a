"""Hand-built fragment bodies compiled through the one fragment
compiler (``repro.core.closures.compile_fragment``) without a runtime.

``compile_body`` lowers nothing: it takes the ops as
``repro.core.emit`` would lay them out, gives every exit a stub linked
to ``LINKED`` and binds the generated code to the given memory, system
and counter.  A body without a terminating exit returns ``None`` when
its last op falls through, so a body of one run is that run alone.
"""

from types import SimpleNamespace

from repro.core.closures import compile_fragment
from repro.core.emit import OP_EXEC
from repro.core.fragments import Fragment, FragmentBody, LinkStub
from repro.core.stats import RuntimeStats
from repro.core.translate import TranslationTable
from repro.machine.cost import CostModel, CycleCounter
from repro.machine.system import System

# The fragment every exit of a compiled body is linked to.
LINKED = Fragment(0x9000, Fragment.KIND_BB)


def compile_body(code, mem, system=None, counter=None, exits=0):
    """``(fn, ex)``: the generated function of a body of ``code`` with
    ``exits`` direct exits, and an executor stand-in whose
    ``instructions`` the function charges (cycles go to ``counter``)."""
    descs = tuple(
        (LinkStub.KIND_DIRECT, 0x9000, False, (), False) for _ in range(exits)
    )
    pcs = tuple(
        (None,) * len(op[1]) if op[0] == OP_EXEC else (None,) for op in code
    )
    body = FragmentBody(
        tuple(code), descs, 0, None, (0x1000,), TranslationTable(pcs, {})
    )
    fragment = Fragment(0x1000, Fragment.KIND_BB)
    fragment.body = body
    fragment.exits = [
        LinkStub(fragment, index, *desc[:3])
        for index, desc in enumerate(descs)
    ]
    for stub in fragment.exits:
        stub.linked_to = LINKED
    runtime = SimpleNamespace(
        memory=mem,
        system=system or System(),
        counter=counter or CycleCounter(),
        stats=RuntimeStats(),
        cost=CostModel(),
        options=SimpleNamespace(precise_interrupts=False),
        client_hook=lambda fn, tag, role: fn,
        observer=None,
    )
    ex = SimpleNamespace(instructions=0, fragment=fragment)
    return compile_fragment(fragment, runtime), ex


def compile_run(instrs, mem, system=None, counter=None):
    """``(fn, ex)`` for a body of one run of ``(opcode, ops, cost)``
    instructions; ``fn(ex, cpu)`` returns ``None`` once it ran."""
    return compile_body(((OP_EXEC, tuple(instrs)),), mem, system, counter)
