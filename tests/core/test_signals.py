"""Asynchronous signal interception (paper Section 2).

"Signals on Linux must be similarly intercepted": the kernel never
transfers control behind the runtime's back.  Alarm signals are
delivered at safe points — between instructions natively, at a fragment
boundary under the runtime — so, exactly as in real DynamoRIO, the
*precise* delivery instant may differ while the control-flow contract
(handler runs, sees the interrupted pc on the stack, iret resumes)
holds in both.
"""

import pytest

from repro.core import DynamoRIO, RuntimeOptions
from repro.loader import Process
from repro.machine.interp import run_native
from repro.minicc import compile_source
from repro.tools.oracle import Cell, check


SIGNAL_SRC = """
int ticks;

int on_alarm() {
    ticks++;
    if (ticks < 4) { alarm(250); }
    sigreturn;
    return 0;
}

int main() {
    int i;
    sighandler(&on_alarm);
    alarm(250);
    i = 0;
    while (ticks < 4) { i++; }
    print(ticks);
    return 0;
}
"""


# One syscall slot: ``alarm(10)`` with no handler, or the control
# ``sighandler(0)``, which arms nothing and compiles to the same code.
# The loop's two paths make its trace's side exit a linked block.
ALARM_SLOT_SRC = """
int main() {
    int i; int s;
    %s;
    s = 0;
    for (i = 0; i < 20000; i++) {
        if (i & 1) { s = s + i; } else { s = s - 1; }
    }
    print(s);
    return 0;
}
"""

LATE_HANDLER_SRC = """
int ticks;

int on_alarm() {
    ticks++;
    sigreturn;
    return 0;
}

int main() {
    int i; int s;
    alarm(10);
    s = 0;
    for (i = 0; i < 2000; i++) { s = s + i; }
    sighandler(&on_alarm);
    for (i = 0; i < 100; i++) { s = s + i; }
    print(s);
    print(ticks);
    return 0;
}
"""


@pytest.fixture(scope="module")
def signal_image():
    return compile_source(SIGNAL_SRC)


class TestNativeSignals:
    def test_handler_runs_and_resumes(self, signal_image):
        result = run_native(Process(signal_image))
        assert int.from_bytes(result.output, "little") == 4
        assert result.exit_code == 0
        assert result.events["signals_delivered"] == 4

    def test_no_handler_no_delivery(self):
        src = """
int main() {
    int i;
    alarm(50);
    for (i = 0; i < 500; i++) { }
    print(i);
    return 0;
}
"""
        result = run_native(Process(compile_source(src)))
        assert result.events.get("signals_delivered", 0) == 0
        assert int.from_bytes(result.output, "little") == 500


class TestRuntimeSignals:
    def test_intercepted_and_transparent_output(self, signal_image):
        native = run_native(Process(signal_image))
        result = DynamoRIO(
            Process(signal_image), options=RuntimeOptions.with_traces()
        ).run()
        # the observable contract: same signal count, same output
        assert result.output == native.output
        assert result.events["signals_delivered"] == 4

    def test_handler_code_runs_under_the_cache(self, signal_image):
        """The interception claim: handler code is translated like all
        other application code, never run natively."""
        dr = DynamoRIO(Process(signal_image), options=RuntimeOptions.with_traces())
        dr.run()
        handler_addr = signal_image.symbol("fn_on_alarm")
        assert dr.current_thread.lookup_fragment(handler_addr) is not None

    def test_interrupted_pc_is_application_address(self, signal_image):
        """Transparency of delivery: the pc pushed for the handler is an
        original application address, never a code-cache address."""
        dr = DynamoRIO(Process(signal_image), options=RuntimeOptions.with_traces())
        observed = []

        original = dr._deliver_signal

        def spy(thread, tag):
            observed.append(tag)
            return original(thread, tag)

        dr._deliver_signal = spy
        dr.run()
        code = dr.memory.region("app_code")
        cache = dr.memory.region("code_cache")
        assert observed
        for tag in observed:
            assert code.contains(tag)
            assert not cache.contains(tag)

    def test_works_under_bb_cache_only(self, signal_image):
        result = DynamoRIO(
            Process(signal_image), options=RuntimeOptions.bb_cache_only()
        ).run()
        assert int.from_bytes(result.output, "little") == 4


class TestMidTraceSignal:
    """A signal arriving while a trace recording is in progress must
    abandon the recording: stitching across the asynchronous redirect
    would bake the handler's blocks into the trace as its fall-through
    path."""

    def test_deliver_signal_squashes_recording(self, signal_image):
        from repro.core.trace_builder import TraceRecording

        dr = DynamoRIO(
            Process(signal_image), options=RuntimeOptions.with_traces()
        )
        thread = dr.current_thread
        thread.cpu.regs[4] = dr.process.initial_stack_pointer()  # esp
        dr.system.signal_handler = signal_image.symbol("fn_on_alarm")
        thread.trace_in_progress = TraceRecording(signal_image.entry)
        target = dr._deliver_signal(thread, signal_image.entry)
        assert target == dr.system.signal_handler
        assert thread.trace_in_progress is None

    def test_squash_is_observable_in_the_event_stream(self, signal_image):
        from repro.core.trace_builder import TraceRecording

        options = RuntimeOptions.with_traces()
        options.trace_events = True
        options.trace_buffer = None
        dr = DynamoRIO(Process(signal_image), options=options)
        thread = dr.current_thread
        thread.cpu.regs[4] = dr.process.initial_stack_pointer()  # esp
        dr.system.signal_handler = signal_image.symbol("fn_on_alarm")
        thread.trace_in_progress = TraceRecording(signal_image.entry)
        dr._deliver_signal(thread, signal_image.entry)
        delivered = [
            e for e in dr.observer.events() if e.kind == "signal_delivered"
        ]
        assert delivered and delivered[-1].data.get("trace_squashed") is True

    def test_hair_trigger_traces_stay_transparent(self, signal_image):
        """With a hair-trigger threshold, recordings are active when
        alarms land; output and signal count must still match native."""
        verdict = check(Cell(
            signal_image, options=lambda: RuntimeOptions(trace_threshold=2),
        ))
        assert verdict.ok, verdict
        result = verdict.runs[0].result
        assert (
            result.events["signals_delivered"]
            == verdict.native.events["signals_delivered"]
        )
        assert result.events["traces_built"] > 0

    def test_no_trace_spans_cover_the_handler(self, signal_image):
        """No finalized trace stitched handler code: every trace's
        source spans stay clear of the handler function (the
        cache-consistency span bookkeeping makes this checkable)."""
        options = RuntimeOptions.with_traces()
        options.trace_threshold = 2
        options.cache_consistency = True
        dr = DynamoRIO(Process(signal_image), options=options)
        dr.run()
        # The handler function occupies [fn_on_alarm, fn_main).
        h_lo = signal_image.symbol("fn_on_alarm")
        h_hi = signal_image.symbol("fn_main")
        assert h_lo < h_hi
        checked = 0
        for thread in dr.threads:
            for trace in thread.trace_cache.fragments.values():
                if h_lo <= trace.tag < h_hi:
                    continue  # the handler's own traces may cover it
                checked += 1
                for start, end in trace.source_spans:
                    assert not (start < h_hi and h_lo < end), (
                        "trace 0x%x stitched handler code" % trace.tag
                    )
        assert checked > 0


class TestIret:
    def test_iret_restores_flags(self):
        """The handler may clobber eflags; iret restores the interrupted
        context's flags from the stack."""
        src = """
int ticks;
int on_alarm() {
    int junk;
    junk = 7 - 9;          /* clobbers flags */
    ticks++;
    sigreturn;
    return 0;
}
int main() {
    int i; int odd;
    sighandler(&on_alarm);
    alarm(100);
    odd = 0;
    for (i = 0; i < 4000; i++) {
        if (i & 1) { odd++; }
    }
    print(odd);
    print(ticks);
    return 0;
}
"""
        image = compile_source(src)
        native = run_native(Process(image))
        values = [
            int.from_bytes(native.output[i : i + 4], "little")
            for i in range(0, len(native.output), 4)
        ]
        assert values[0] == 2000  # flag-dependent loop unharmed
        assert values[1] == 1
        under = DynamoRIO(Process(image), options=RuntimeOptions.with_traces()).run()
        dr_values = [
            int.from_bytes(under.output[i : i + 4], "little")
            for i in range(0, len(under.output), 4)
        ]
        assert dr_values == values


class TestAlarmWithoutHandler:
    """An alarm with no handler installed cannot be delivered, natively
    or under the runtime, so it must not send fragment boundaries back
    to the dispatcher: the run costs exactly what the control costs."""

    @staticmethod
    def _options(precise):
        def options():
            made = RuntimeOptions.with_traces()
            made.precise_interrupts = precise
            return made

        return options

    @pytest.mark.parametrize("precise", [False, True])
    def test_costs_what_the_control_costs(self, precise):
        outcomes = []
        for slot in ("alarm(10)", "sighandler(0)"):
            verdict = check(Cell(
                compile_source(ALARM_SLOT_SRC % slot),
                options=self._options(precise),
            ))
            assert verdict.ok, verdict
            run = verdict.runs[0]
            outcomes.append(
                (run.result.cycles, run.result.events["context_switches"])
            )
        assert outcomes[0] == outcomes[1]

    @pytest.mark.parametrize("precise", [False, True])
    def test_handler_installed_later_gets_the_signal(self, precise):
        verdict = check(Cell(
            compile_source(LATE_HANDLER_SRC), options=self._options(precise),
        ))
        assert verdict.ok, verdict  # output equals native's
        assert verdict.native.events["signals_delivered"] == 1
        assert verdict.runs[0].result.events["signals_delivered"] == 1
        assert verdict.runs[0].result.output[-4:] == (1).to_bytes(4, "little")
