"""End-to-end verification: sample clients pass under
``options.verify_fragments`` (every rule, drequiv's equivalence rule
included) and the runtime catches bad clients."""

import sys

import pytest

from repro.analysis import VerificationError
from repro.api.client import Client
from repro.api.dr import dr_insert_meta_instr
from repro.asm import CodeBuilder, mem
from repro.clients import (
    CustomTraces,
    IndirectBranchDispatch,
    InlineInstructionCounter,
    RedundantLoadRemoval,
    StrengthReduction,
)
from repro.core import RuntimeOptions, emit
from repro.ir.create import (
    INSTR_CREATE_add,
    OPND_CREATE_INT32,
    OPND_CREATE_REG,
)
from repro.isa.registers import Reg
from repro.minicc import compile_source
from repro.tools.oracle import Cell, Column, check
from repro.workloads import load_benchmark

from tests.conftest import run_under


def verifying_options():
    options = RuntimeOptions.with_traces()
    options.verify_fragments = True
    return options


@pytest.mark.parametrize(
    "make_client",
    [
        RedundantLoadRemoval,
        StrengthReduction,
        CustomTraces,
        InlineInstructionCounter,
    ],
)
def test_clients_verify_on_loop(loop_image, loop_native, make_client):
    dr, result = run_under(
        loop_image, options=verifying_options(), client=make_client()
    )
    assert result.output == loop_native.output
    assert not any(d.is_error for d in dr.verifier_diagnostics)


# Value-form ``&&``/``||`` whose right operand has a side effect (the
# call runs only when the left operand does not decide), unary ``-`` and
# ``~``, and a decrement statement: codegen's short-circuit value path
# and the NEG, NOT and DEC semantics of the equivalence rule.
SHORTCIRCUIT_UNARY_SRC = """
int calls;

int bump(int v) {
    calls++;
    return v;
}

int main() {
    int n; int a; int b; int x; int y; int acc;
    n = 6;
    acc = 5;
    while (n > 0) {
        a = n & 1;
        b = n & 2;
        x = bump(a) && bump(b);
        y = bump(a) || bump(b);
        acc = -(~acc + x * 4 + y - n);
        n--;
    }
    print(acc);
    print(calls);
    return 0;
}
"""


def _verify_reaching(wanted, make_image):
    """Check the image ``make_image()`` builds through an oracle cell
    with every fragment verified; returns the verdict and which of the
    ``wanted`` ``(module, function)`` pairs were called on the way."""
    reached = set()

    def profile(frame, event, arg):
        if event == "call":
            key = (frame.f_globals.get("__name__"), frame.f_code.co_name)
            if key in wanted:
                reached.add(key)

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        verdict = check(Cell(make_image(), options=verifying_options))
    finally:
        sys.setprofile(previous)
    return verdict, reached


def test_shortcircuit_values_and_unary_ops_verify():
    """The cell runs native-identical with every fragment verified, and
    reaches paths no other tier-1 test calls."""
    wanted = {("repro.minicc.codegen", "_gen_shortcircuit")} | {
        ("repro.analysis.symexec", name)
        for name in ("flags_dec", "flags_neg", "neg", "bnot")
    }
    verdict, reached = _verify_reaching(
        wanted, lambda: compile_source(SHORTCIRCUIT_UNARY_SRC)
    )
    assert verdict.ok, verdict
    assert reached == wanted


def _sign_extension_fdiv_shifts_image():
    """A loop over ``movsx`` of a loaded byte, ``fdiv`` of a loop value
    and of constants, and ``shl``/``shr``/``sar`` of constants (a
    negative one for ``sar``), printing one sum per iteration."""
    b = CodeBuilder(base=0x1000)
    b.label("main")
    b.mov(Reg.EDI, 4)
    b.label("loop")
    b.push(Reg.EDI)
    b.movsx(Reg.ESI, mem(base=Reg.ESP, size=1))
    b.pop(Reg.EDX)
    b.mov(Reg.EAX, 0x80000000)
    b.sar(Reg.EAX, 4)
    b.mov(Reg.EBX, 0x1234)
    b.shl(Reg.EBX, 3)
    b.shr(Reg.EBX, 2)
    b.mov(Reg.ECX, -100)
    b.fdiv(Reg.ECX, Reg.EDI)
    b.mov(Reg.EDX, 100)
    b.mov(Reg.EBP, 7)
    b.fdiv(Reg.EDX, Reg.EBP)
    for reg in (Reg.EAX, Reg.EBX, Reg.ECX, Reg.EDX):
        b.add(Reg.ESI, reg)
    b.mov(Reg.EBX, Reg.ESI)
    b.mov(Reg.EAX, 3)  # write ebx as 4 output bytes
    b.syscall()
    b.dec(Reg.EDI)
    b.jnz("loop")
    b.mov(Reg.EAX, 1)  # exit 0
    b.mov(Reg.EBX, 0)
    b.syscall()
    return b.image(entry="main")


def test_sign_extension_fdiv_and_constant_shifts_verify():
    """The equivalence rule's sign extension, signed fixed-point
    division and constant-folded shifts run, and the cell stays
    native-identical with every fragment verified."""
    wanted = {
        ("repro.analysis.symexec", name)
        for name in ("sx", "fdiv", "_shl_v", "_shr_v", "_sar_v")
    }
    verdict, reached = _verify_reaching(
        wanted, _sign_extension_fdiv_shifts_image
    )
    assert verdict.ok, verdict
    assert reached == wanted
    assert len(verdict["runtime"].result.output) == 16


def test_indirect_dispatch_verifies(indirect_image, indirect_native):
    dr, result = run_under(
        indirect_image,
        options=verifying_options(),
        client=IndirectBranchDispatch(),
    )
    assert result.output == indirect_native.output
    assert not any(d.is_error for d in dr.verifier_diagnostics)


class UnsafeClient(Client):
    """Clobbers a live register and live flags in every block."""

    def basic_block(self, context, tag, ilist):
        ilist.expand_bundles()
        bump = INSTR_CREATE_add(
            OPND_CREATE_REG(Reg.EAX), OPND_CREATE_INT32(1)
        )
        dr_insert_meta_instr(ilist, ilist.first(), bump)


def test_unsafe_client_is_caught(loop_image):
    with pytest.raises(VerificationError) as exc:
        run_under(loop_image, options=verifying_options(), client=UnsafeClient())
    assert any(
        d.rule in ("scratch-registers", "eflags-safety")
        for d in exc.value.diagnostics
    )


def test_verification_off_by_default(loop_image):
    # The same unsafe client goes unnoticed without the debug option —
    # the verifier is opt-in and charges nothing by default.
    dr, result = run_under(loop_image, client=UnsafeClient())
    assert dr.verifier_diagnostics == []


# Verification off against on, through the differential oracle: cycles,
# instructions, output, exit code, events and final state must agree.
VERIFY_COLUMNS = (
    Column("off", {"verify_fragments": False}),
    Column("on", {"verify_fragments": True}),
)


@pytest.mark.parametrize("name", ["crafty", "mgrid"])
def test_verification_costs_no_simulated_cycles(name):
    """Full verification is a debug mode the modelled machine never
    pays for: a verified run is simulated-identical to an unverified
    one, exactly."""
    verdict = check(Cell(load_benchmark(name, "test"), columns=VERIFY_COLUMNS))
    assert verdict.ok, verdict


def test_planted_verify_charge_fails_the_cost_check(monkeypatch):
    """Negative control: one simulated cycle charged on the verify path
    must show as a cycles divergence between the columns."""
    verify = emit._verify_before_emit

    def charging(tag, kind, ilist, runtime, source_tags):
        runtime.counter.cycles += 1
        return verify(tag, kind, ilist, runtime, source_tags)

    monkeypatch.setattr(emit, "_verify_before_emit", charging)
    verdict = check(Cell(load_benchmark("mgrid", "test"), columns=VERIFY_COLUMNS))
    assert "cycles" in verdict.failed()
