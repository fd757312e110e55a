"""Custom trace client tests (paper Section 4.4)."""

from repro.clients import CustomTraces
from repro.isa.opcodes import Opcode
from repro.loader import Process
from repro.machine.interp import run_native
from repro.minicc import compile_source

from tests.core.conftest import run_under


# A hot function invoked from six different call sites on alternating
# control-flow paths: the default (loop-centric) trace covers only one
# path, so the other five pay a hashtable lookup per return — exactly
# the weakness the paper's Section 4.4 describes.  Per-call-site custom
# traces inline the return with a continuation that always matches.
CALL_HEAVY_SRC = """
int compute(int x) { return x * 7 + 3; }
int main() {
    int i; int acc; int s;
    acc = 0;
    for (i = 0; i < 900; i++) {
        s = i %% 6;
        if (s == 0) { acc = acc + compute(acc + 1); }
        else if (s == 1) { acc = acc + compute(acc + 2); }
        else if (s == 2) { acc = acc + compute(acc + 3); }
        else if (s == 3) { acc = acc + compute(acc + 5); }
        else if (s == 4) { acc = acc + compute(acc + 7); }
        else { acc = acc + compute(acc + 11); }
        acc = acc & 0xFFFFF;
    }
    print(acc);
    return 0;
}
""" % ()


class TestCustomTraceShapes:
    def test_transparent(self):
        image = compile_source(CALL_HEAVY_SRC)
        native = run_native(Process(image))
        _dr, result = run_under(image, client=CustomTraces())
        assert result.output == native.output
        assert result.exit_code == native.exit_code

    def test_call_targets_marked_as_heads(self):
        image = compile_source(CALL_HEAVY_SRC)
        client = CustomTraces()
        dr, _ = run_under(image, client=client)
        assert client.heads_marked > 0
        # the runtime recorded the marks
        assert dr.pending_trace_heads

    def test_traces_built_at_function_entries(self):
        image = compile_source(CALL_HEAVY_SRC)
        client = CustomTraces()
        dr, result = run_under(image, client=client)
        assert result.events["traces_built"] > 0
        trace_tags = set(dr.current_thread.trace_cache.fragments)
        assert trace_tags & dr.pending_trace_heads

    def test_inlined_returns_removed(self):
        image = compile_source(CALL_HEAVY_SRC)
        client = CustomTraces()
        dr, _ = run_under(image, client=client)
        assert client.returns_removed > 0
        # removed returns show up as lea esp, [esp+4] in trace sources
        leas = 0
        for trace in dr.current_thread.trace_cache.fragments.values():
            for instr in trace.body.instrs_source:
                if (
                    instr.level >= 2
                    and not instr.is_label()
                    and instr.opcode == Opcode.LEA
                ):
                    op = instr.src(0)
                    if op.is_mem() and op.base is not None and op.disp == 4:
                        leas += 1
        assert leas > 0

    def test_fewer_return_checks_than_base(self):
        """Removed returns do not even execute the inline check."""
        image = compile_source(CALL_HEAVY_SRC)
        _dr, base = run_under(image)
        _dr, custom = run_under(image, client=CustomTraces())
        assert (
            custom.events["inline_check_hits"] < base.events["inline_check_hits"]
        )

    def test_speedup_on_recursion_heavy_code_at_scale(self):
        """The paper's win case: custom traces beat base DynamoRIO on
        call-dominated benchmarks once build costs amortize (crafty)."""
        from repro.workloads import load_benchmark

        image = load_benchmark("crafty", 4)
        _dr, base = run_under(image)
        _dr, custom = run_under(image, client=CustomTraces())
        assert custom.output == base.output
        assert custom.cycles < base.cycles

    def test_only_paired_returns_removed(self):
        """A return whose matching call is off-trace keeps its check —
        removing it would be unsound (any caller could be live)."""
        src = """
int leaf(int x) { return x + 1; }
int rec(int n) {
    if (n < 1) { return 0; }
    return rec(n - 1) + leaf(n);
}
int main() {
    int i; int acc;
    acc = 0;
    for (i = 0; i < 150; i++) { acc = acc + rec(12); }
    print(acc);
    return 0;
}
"""
        image = compile_source(src)
        native = run_native(Process(image))
        client = CustomTraces()
        _dr, result = run_under(image, client=client)
        # deep recursion with removal enabled must stay transparent
        assert result.output == native.output

    def test_remove_returns_can_be_disabled(self):
        image = compile_source(CALL_HEAVY_SRC)
        native = run_native(Process(image))
        client = CustomTraces(remove_returns=False)
        _dr, result = run_under(image, client=client)
        assert client.returns_removed == 0
        assert result.output == native.output

    def test_max_trace_blocks_limits_unrolling(self):
        image = compile_source(CALL_HEAVY_SRC)
        client = CustomTraces(max_trace_blocks=3)
        dr, result = run_under(image, client=client)
        assert result.events["traces_built"] > 0
