"""ClientGuard fault isolation: buggy clients cannot perturb the app.

The contract under ``options.guard_clients``:

* a hook that raises (or corrupts its instruction list, or blows the
  hook budget) is recorded as a client fault and the fragment is
  re-emitted from its pristine snapshot — the program's output and exit
  code stay identical to a native run;
* after ``guard.FAULT_LIMIT`` faults the client is quarantined (caches
  flushed, hooks skipped) and the run continues at native fidelity;
* deliberate halts (:class:`ClientHalt` subclasses) always propagate;
* a well-behaved client is bit-identical with the guard on or off.
"""

import pytest

from repro.api.client import Client
from repro.api.dr import (
    dr_get_profile,
    dr_insert_clean_call,
    dr_register_event_tracer,
    dr_set_exit_stub,
)
from repro.clients import StrengthReduction
from repro.core import RuntimeOptions
from repro.ir.instrlist import InstrList
from repro.observe import OVERHEAD_KEY
from repro.resilience import ClientGuard, ClientHalt, HookBudgetExceeded
from repro.resilience import guard
from repro.resilience.faultinject import corrupt_instrlist

from tests.conftest import run_under


def _guarded_options(**overrides):
    options = RuntimeOptions.with_traces()
    options.guard_clients = True
    options.trace_events = True
    options.trace_buffer = None
    for key, value in overrides.items():
        setattr(options, key, value)
    return options


class RaisingBBClient(Client):
    """Raises from every basic-block hook."""

    def __init__(self):
        super().__init__()
        self.calls = 0

    def basic_block(self, context, tag, ilist):
        self.calls += 1
        raise RuntimeError("planted bb bug #%d" % self.calls)


class CorruptingBBClient(Client):
    """Returns normally but leaves the list unemittable."""

    def basic_block(self, context, tag, ilist):
        corrupt_instrlist(ilist)


class SpinningBBClient(Client):
    """Never returns from the hook (caught by the hook budget)."""

    def basic_block(self, context, tag, ilist):
        n = 0
        while True:
            n += 1


class HaltingClient(Client):
    class Stop(ClientHalt):
        pass

    def basic_block(self, context, tag, ilist):
        raise self.Stop("deliberate halt")


class FaultyEndTraceClient(Client):
    def end_trace(self, context, trace_tag, next_tag):
        raise ValueError("bad end_trace decision")


class FaultyCleanCallClient(Client):
    """Instruments every block with a clean call that raises."""

    def __init__(self):
        super().__init__()
        self.calls = 0

    def _broken(self, context):
        self.calls += 1
        raise KeyError("clean call bug")

    def basic_block(self, context, tag, ilist):
        first = next(iter(ilist), None)
        dr_insert_clean_call(ilist, first, self._broken)


@pytest.mark.parametrize(
    "client_factory", [RaisingBBClient, CorruptingBBClient]
)
def test_faulty_bb_hook_bails_out_and_quarantines(
    loop_image, loop_native, client_factory
):
    client = client_factory()
    runtime, result = run_under(
        loop_image, options=_guarded_options(), client=client
    )

    assert result.output == loop_native.output
    assert result.exit_code == loop_native.exit_code
    assert runtime.stats.client_faults == guard.FAULT_LIMIT
    assert runtime.stats.fragment_bailouts >= 1
    assert runtime.stats.client_quarantines == 1
    counts = runtime.observer.counts
    assert counts["client_fault"] == runtime.stats.client_faults
    assert counts["client_quarantined"] == 1
    assert counts["fragment_bailout"] == runtime.stats.fragment_bailouts
    assert runtime.guard.quarantined


def test_quarantine_stops_calling_hooks(loop_image, loop_native):
    client = RaisingBBClient()
    runtime, result = run_under(
        loop_image, options=_guarded_options(), client=client
    )
    assert result.output == loop_native.output
    # The hook faulted exactly FAULT_LIMIT times, then stopped being
    # invoked at all — every post-quarantine build skips the client.
    assert client.calls == guard.FAULT_LIMIT


def test_profile_stays_consistent_after_quarantine(loop_image, loop_native):
    runtime, result = run_under(
        loop_image, options=_guarded_options(), client=RaisingBBClient()
    )
    assert result.output == loop_native.output
    profiler = runtime.observer.profiler
    # Attribution survives the mid-run cache flush: every simulated
    # cycle is either in a fragment or in runtime overhead.
    assert (
        profiler.attributed_cycles() + profiler.overhead_cycles()
        == profiler.total_cycles()
        == result.cycles
    )
    rows = dr_get_profile(runtime)
    assert rows
    assert all(row["tag"] != OVERHEAD_KEY for row in rows)


def test_guard_zero_overhead_for_well_behaved_client(loop_image):
    def run(guarded):
        options = RuntimeOptions.with_traces()
        options.trace_events = True
        options.trace_buffer = None
        if guarded:
            options.guard_clients = True
            options.cache_consistency = True
        return run_under(loop_image, options=options,
                         client=StrengthReduction())

    rt_off, res_off = run(guarded=False)
    rt_on, res_on = run(guarded=True)
    assert res_on.cycles == res_off.cycles
    assert res_on.instructions == res_off.instructions
    assert res_on.output == res_off.output
    assert res_on.exit_code == res_off.exit_code
    assert res_on.events == res_off.events
    streams = [
        [(e.kind, e.tag, e.data) for e in rt.observer.events()]
        for rt in (rt_off, rt_on)
    ]
    assert streams[0] == streams[1]
    assert rt_on.stats.client_faults == 0


def test_client_halt_propagates(loop_image):
    with pytest.raises(HaltingClient.Stop):
        run_under(loop_image, options=_guarded_options(),
                  client=HaltingClient())


def test_hook_budget_catches_runaway_hook(loop_image, loop_native):
    runtime, result = run_under(
        loop_image,
        options=_guarded_options(client_hook_budget=20000),
        client=SpinningBBClient(),
    )
    assert result.output == loop_native.output
    assert runtime.stats.client_faults >= 1
    assert any(
        entry["error"] == "HookBudgetExceeded"
        for entry in runtime.guard.fault_log
    )


def test_end_trace_fault_falls_back_to_default(loop_image, loop_native):
    runtime, result = run_under(
        loop_image, options=_guarded_options(),
        client=FaultyEndTraceClient(),
    )
    assert result.output == loop_native.output
    assert runtime.stats.client_faults >= 1
    assert any(
        entry["phase"] == "end_trace" for entry in runtime.guard.fault_log
    )
    # Traces still got built via the default heuristic (until quarantine).
    assert runtime.stats.traces_built >= 1


def test_faulty_clean_call_is_contained(loop_image, loop_native,
                                        monkeypatch):
    monkeypatch.setattr(guard, "FAULT_LIMIT", 5)
    client = FaultyCleanCallClient()
    runtime, result = run_under(
        loop_image, options=_guarded_options(), client=client
    )
    assert result.output == loop_native.output
    assert client.calls >= 1
    assert runtime.stats.client_faults == 5
    assert any(
        entry["phase"] == "clean_call" for entry in runtime.guard.fault_log
    )


def test_faulty_stub_call_is_contained(loop_image, loop_native, monkeypatch):
    """A clean call in client exit-stub code is bound to the guard when
    its fragment compiles, like every other execution hook, and its
    faults name that fragment."""
    monkeypatch.setattr(guard, "FAULT_LIMIT", 5)
    calls = []
    stubbed = set()

    class FaultyStubClient(Client):
        def basic_block(self, context, tag, ilist):
            last = ilist.last()
            if last is not None and last.level >= 2 and last.is_cti():
                stub = InstrList()
                dr_insert_clean_call(stub, None, self._broken)
                dr_set_exit_stub(last, stub, always=True)
                stubbed.add(tag)

        def _broken(self, context):
            calls.append(1)
            raise KeyError("stub call bug")

    runtime, result = run_under(
        loop_image, options=_guarded_options(), client=FaultyStubClient()
    )
    assert result.output == loop_native.output
    assert calls
    assert runtime.stats.client_faults == 5
    assert {entry["phase"] for entry in runtime.guard.fault_log} == {
        "stub_call"
    }
    for entry in runtime.guard.fault_log:
        assert entry["tag"] in stubbed, entry


def test_faulty_tracer_is_detached(loop_image, loop_native):
    seen = {"events": 0}

    class TracingClient(Client):
        def init(self):
            def tracer(event):
                seen["events"] += 1
                raise OSError("tracer bug")

            dr_register_event_tracer(self, tracer)

    runtime, result = run_under(
        loop_image, options=_guarded_options(), client=TracingClient()
    )
    assert result.output == loop_native.output
    # The tracer ran once, faulted, and was detached — not once per event.
    assert seen["events"] == 1
    assert any(
        entry["phase"] == "tracer" for entry in runtime.guard.fault_log
    )


def test_quarantine_detaches_client_observers(loop_image, loop_native):
    seen = []

    class TracingFaultyClient(Client):
        """Registers a well-behaved tracer but has a buggy bb hook."""

        def init(self):
            dr_register_event_tracer(self, lambda ev: seen.append(ev.kind))

        def basic_block(self, context, tag, ilist):
            raise RuntimeError("planted bb bug")

    runtime, result = run_under(
        loop_image, options=_guarded_options(), client=TracingFaultyClient()
    )
    assert result.output == loop_native.output
    assert runtime.stats.client_quarantines == 1
    # Quarantine goes through the detach path: the tracer registration
    # is gone from the observer — no client emit site survives — and
    # the bookkeeping list is cleared so a later detach/re-attach
    # cannot resurrect it.
    assert runtime._client_tracers == []
    assert runtime.observer.tracers == []
    # The tracer saw nothing after the quarantine event (which itself
    # is emitted only after the client's observers are gone).
    assert "client_quarantined" not in seen
    assert len(seen) < runtime.observer.total_emitted
    runtime, _ = run_under(loop_image, client=StrengthReduction())
    assert runtime.guard is None


def test_guard_only_exists_with_client(loop_image):
    options = _guarded_options()
    runtime, _ = run_under(loop_image, options=options, client=None)
    assert runtime.guard is None
    runtime, _ = run_under(
        loop_image, options=_guarded_options(), client=StrengthReduction()
    )
    assert isinstance(runtime.guard, ClientGuard)
    assert runtime.guard.faults == 0


def test_budget_exception_type():
    assert issubclass(HookBudgetExceeded, Exception)
    assert not issubclass(HookBudgetExceeded, ClientHalt)
