"""End-to-end verification: sample clients pass under
``options.verify_fragments`` (every rule, drequiv's equivalence rule
included) and the runtime catches bad clients."""

import sys

import pytest

from repro.analysis import VerificationError
from repro.api.client import Client
from repro.api.dr import dr_insert_meta_instr
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


def test_shortcircuit_values_and_unary_ops_verify():
    """The cell runs native-identical with every fragment verified, and
    reaches paths no other tier-1 test calls."""
    wanted = {("repro.minicc.codegen", "_gen_shortcircuit")} | {
        ("repro.analysis.symexec", name)
        for name in ("flags_dec", "flags_neg", "neg", "bnot")
    }
    reached = set()

    def profile(frame, event, arg):
        if event == "call":
            key = (frame.f_globals.get("__name__"), frame.f_code.co_name)
            if key in wanted:
                reached.add(key)

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        image = compile_source(SHORTCIRCUIT_UNARY_SRC)
        verdict = check(Cell(image, options=verifying_options))
    finally:
        sys.setprofile(previous)
    assert verdict.ok, verdict
    assert reached == wanted


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
