"""Trace construction tests: heads, stitching, inversion, inlining."""

from repro.core import RuntimeOptions, trace_builder
from repro.core.trace_builder import stitch_trace, TraceRecording
from repro.isa.opcodes import JCC_OPPOSITE, Opcode
from repro.isa.registers import Reg

from tests.core.conftest import run_under


def _traces(dr):
    return list(dr.current_thread.trace_cache.fragments.values())


class TestTraceCreation:
    def test_loop_head_becomes_trace(self, loop_image):
        opts = RuntimeOptions.with_traces()
        opts.trace_threshold = 5
        dr, result = run_under(loop_image, opts)
        assert result.events["traces_built"] >= 1
        # loop backedge target became a head and then a trace
        heads = [
            f
            for f in dr.current_thread.bb_cache.fragments.values()
            if f.is_trace_head
        ]
        assert heads

    def test_trace_shadows_head_bb(self, loop_image):
        opts = RuntimeOptions.with_traces()
        opts.trace_threshold = 5
        dr, _ = run_under(loop_image, opts)
        thread = dr.current_thread
        for trace in _traces(dr):
            assert thread.lookup_fragment(trace.tag) is trace

    def test_trace_heads_not_in_ibl(self, loop_image):
        opts = RuntimeOptions.with_traces()
        opts.trace_threshold = 10 ** 9  # heads exist but no traces built
        dr, _ = run_under(loop_image, opts)
        thread = dr.current_thread
        for fragment in thread.bb_cache.fragments.values():
            if fragment.is_trace_head:
                assert thread.ibl.table.get(fragment.tag) is not fragment

    def test_trace_heads_stay_unlinked(self, loop_image):
        opts = RuntimeOptions.with_traces()
        opts.trace_threshold = 10 ** 9
        dr, _ = run_under(loop_image, opts)
        for fragment in dr.current_thread.bb_cache.fragments.values():
            if fragment.is_trace_head:
                assert fragment.incoming == []

    def test_max_trace_bbs_respected(self, loop_image, monkeypatch):
        monkeypatch.setattr(trace_builder, "MAX_TRACE_BBS", 2)
        opts = RuntimeOptions.with_traces()
        opts.trace_threshold = 5
        dr, result = run_under(loop_image, opts)
        assert result.events["traces_built"] >= 1
        # The loop's trace stitches 4 blocks at the default limit.
        lengths = [len(t.body.source_tags) for t in _traces(dr)]
        assert max(lengths) == 2, lengths


class TestStitching:
    def _run_and_grab(self, image, threshold=5):
        opts = RuntimeOptions.with_traces()
        opts.trace_threshold = threshold
        dr, result = run_under(image, opts)
        return dr, result

    def test_traces_are_linear(self, loop_image):
        dr, _ = self._run_and_grab(loop_image)
        for trace in _traces(dr):
            # Linearity: no instruction targets a point inside the
            # trace except via LABEL refs (none created by stitching).
            il = trace.body.instrs_source
            assert il.labels_targeted() == set()

    def test_inverted_branches_stay_on_trace(self, loop_image):
        """Conditional branches in a trace exit on the *unlikely* side:
        executing the trace should mostly fall through (that is the
        point of trace layout)."""
        dr, result = self._run_and_grab(loop_image)
        taken_exits = 0
        cond_exits = 0
        for trace in _traces(dr):
            for instr in trace.body.instrs_source:
                if instr.level >= 2 and instr.is_cond_branch():
                    cond_exits += 1
        assert cond_exits > 0

    def test_direct_calls_inlined_in_traces(self):
        """A *forward* call (callee at a higher address) is followed by
        the default trace builder and inlined.  Backward calls end the
        trace — the very weakness the paper's Section 4.4 custom-trace
        client addresses."""
        from repro.minicc import compile_source

        src = """
int main() {
    int i; int acc;
    acc = 0;
    for (i = 0; i < 300; i++) { acc = acc + helper(i); }
    print(acc);
    return 0;
}
int helper(int x) { return x * 3 + 1; }
"""
        image = compile_source(src)
        dr, _ = self._run_and_grab(image)
        inlined_calls = 0
        for trace in _traces(dr):
            for instr in trace.body.instrs_source:
                if (
                    instr.level >= 2
                    and instr.opcode == Opcode.CALL
                    and isinstance(instr.note, dict)
                    and instr.note.get("inline")
                ):
                    inlined_calls += 1
        assert inlined_calls > 0

    def test_indirect_branches_get_inline_checks(self, loop_image):
        dr, result = self._run_and_grab(loop_image)
        inline_rets = 0
        for trace in _traces(dr):
            for instr in trace.body.instrs_source:
                if (
                    instr.level >= 2
                    and instr.is_indirect_branch()
                    and isinstance(instr.note, dict)
                    and instr.note.get("inline_target") is not None
                ):
                    inline_rets += 1
        assert inline_rets > 0
        assert result.events["inline_check_hits"] > 0

    def test_unconditional_jumps_elided(self, loop_image):
        """Stitched traces should contain no internal direct jmps to
        the next block (they are elided)."""
        dr, _ = self._run_and_grab(loop_image)
        for trace in _traces(dr):
            instrs = [
                i
                for i in trace.body.instrs_source
                if i.level >= 2 and not i.is_label()
            ]
            for idx, instr in enumerate(instrs[:-1]):
                if instr.opcode == Opcode.JMP and not instr.is_indirect_branch():
                    # any remaining internal jmp must exit the trace (its
                    # target is not the next instruction's address)
                    nxt = instrs[idx + 1]
                    if nxt.raw_bits_valid() and nxt.raw_pc is not None:
                        assert instr.target.pc != nxt.raw_pc


class TestJccOpposites:
    def test_stitch_inverts_taken_side(self):
        """Unit-level check of the inversion logic using a synthetic
        two-block recording."""
        from repro.core.bb_builder import build_basic_block
        from repro.core.emit import emit_fragment
        from repro.core.fragments import Fragment
        from repro.machine.cost import CostModel
        from repro.machine.memory import Memory
        from repro.asm import CodeBuilder

        memory = Memory(size=0x10000)
        # Block A: cmp; jz far — the trace follows the taken side.
        a = CodeBuilder(base=0x1000)
        a.cmp(Reg.EAX, 0)
        a.jz("far")
        for _ in range(60):
            a.nop()
        a.label("far")
        a.ret()
        code, labels = a.assemble()
        memory.write_bytes(0x1000, code)
        il_a = build_basic_block(memory, 0x1000)
        frag_a = emit_fragment(0x1000, Fragment.KIND_BB, il_a, CostModel(), None)
        il_b = build_basic_block(memory, labels["far"])
        frag_b = emit_fragment(
            labels["far"], Fragment.KIND_BB, il_b, CostModel(), None
        )
        rec = TraceRecording(0x1000)
        rec.append(frag_a)
        rec.append(frag_b)  # trace follows the TAKEN side
        trace = stitch_trace(rec)
        cond = [
            i
            for i in trace
            if i.level >= 2 and not i.is_label() and i.is_cond_branch()
        ]
        assert len(cond) == 1
        assert cond[0].opcode == JCC_OPPOSITE[Opcode.JZ]  # inverted
        # the exit target is the original fall-through, not the taken side
        assert cond[0].target.pc != labels["far"]
        assert cond[0].target.pc < labels["far"]
