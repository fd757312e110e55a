"""drdetach: state translation, mid-fragment delivery, detach/re-attach.

The contract (paper Section 2's transparent exit + precise interrupts):

* every cached fragment carries a translation table with one entry
  per op (one PC per instruction of a run) and a poll map, and every
  PC in it is a source PC of the fragment;
* under ``precise_interrupts``, alarms are delivered *mid-fragment*
  with latency bounded by the longest straight-line run
  (``bb_builder.MAX_BB_INSTRS``), and the run stays native-identical;
* ``Runtime.detach()`` translates threads back to application state
  and continues natively with output identical to a never-attached
  run; the translated register state equals a pure interpreter run to
  the same instruction count;
* ``reattach_after`` resumes translated execution, and the event
  stream replays to the exact live stats.

Every run goes through the differential oracle (``repro.tools.oracle``),
which holds it to native output, exit code and final state and to
replay-exact stats.
"""

import pytest

from repro.api.client import Client
from repro.api.dr import dr_detach, dr_reattach, dr_register_event_tracer
from repro.core.bb_builder import MAX_BB_INSTRS
from repro.core.emit import OP_EXEC
from repro.loader import Process
from repro.machine.interp import Interpreter
from repro.minicc import compile_source
from repro.observe.events import EV_SIGNAL_DELIVERED
from repro.tools.detach_diff import DetachClient as DetachAtCall, detach_options
from repro.tools.oracle import Cell, Column, check

SIGNAL_SRC = """
int ticks;

int on_alarm() {
    ticks++;
    if (ticks < 4) { alarm(150); }
    sigreturn;
    return 0;
}

int churn(int n) {
    int j; int acc;
    acc = n;
    for (j = 0; j < 25; j++) { acc = (acc * 3 + j) & 0xFFFF; }
    return acc;
}

int main() {
    int i;
    sighandler(&on_alarm);
    alarm(150);
    i = 0;
    while (ticks < 4) { i = churn(i); }
    print(i + ticks);
    return 0;
}
"""


@pytest.fixture(scope="module")
def signal_image():
    return compile_source(SIGNAL_SRC)


def _run(image, client=None, setup=None):
    """One run, checked by the differential oracle: native output, exit
    code and final state, replay-exact stats."""
    verdict = check(Cell(
        image, options=detach_options, client=lambda: client, setup=setup,
    ))
    assert verdict.ok, verdict
    return verdict.runs[0].runtime, verdict.runs[0].result


def _cached_fragments(runtime):
    seen = {}
    for thread in runtime.threads:
        for cache in (thread.bb_cache, thread.trace_cache):
            for fragment in cache.fragments.values():
                seen[id(fragment)] = fragment
    return list(seen.values())


def _source_pcs(fragment):
    pcs = set()
    for instr in fragment.body.instrs_source:
        if not instr.is_meta and instr.raw_bits_valid():
            pc = instr.raw_pc
            if pc is not None:
                pcs.add(pc)
    return pcs


class DetachAtBuild(Client):
    """Detaches from the k-th basic-block build hook."""

    def __init__(self, at, reattach_after=None):
        super().__init__()
        self.at = at
        self.reattach_after = reattach_after
        self.calls = 0

    def basic_block(self, context, tag, ilist):
        self.calls += 1
        if self.calls == self.at:
            dr_detach(self, reattach_after=self.reattach_after)


# ------------------------------------------------------ translation tables


def test_translation_round_trip_every_fragment(loop_image):
    runtime, _ = _run(loop_image)
    fragments = _cached_fragments(runtime)
    assert fragments, "run left no cached fragments to check"
    for fragment in fragments:
        body = fragment.body
        table = body.translation
        assert table is not None, hex(fragment.tag)
        assert len(table.pcs) == len(body.code)
        # The generated code runs every op: each has a line in the line
        # maps of the body's functions.
        ran = {
            at[0] for line_map in body.entry.__globals__["_lines"].values()
            for at in line_map.values()
        }
        assert ran == set(range(len(body.code))), hex(fragment.tag)
        for op, op_pcs in zip(body.code, table.pcs):
            # One PC per instruction of a run, one for any other op.
            assert len(op_pcs) == (len(op[1]) if op[0] == OP_EXEC else 1)
        source = _source_pcs(fragment)
        recorded = {pc for op_pcs in table.pcs for pc in op_pcs} - {None}
        assert recorded, hex(fragment.tag)
        assert recorded <= source, hex(fragment.tag)
        assert set(table.poll_ops.values()) <= source, hex(fragment.tag)
        for index, pc in table.poll_ops.items():
            assert index > 0 and table.pcs[index][0] == pc


# ------------------------------------------------- mid-fragment interrupts


def test_signal_latency_bounded_and_mid_fragment(signal_image):
    runtime, _ = _run(signal_image)
    deliveries = [
        ev for ev in runtime.observer.events() if ev.kind == EV_SIGNAL_DELIVERED
    ]
    assert deliveries
    bound = MAX_BB_INSTRS
    for ev in deliveries:
        assert ev.data["latency"] is not None
        assert 0 <= ev.data["latency"] <= bound
    assert any(ev.data.get("mid_fragment") for ev in deliveries)
    # The counter aggregates match the per-event latencies exactly.
    latencies = [ev.data["latency"] for ev in deliveries]
    assert runtime.counter.events["signal_latency"] == sum(latencies)
    assert runtime.counter.events["signal_latency_max"] == max(latencies)


def test_precise_mode_bit_identical_across_engines(signal_image):
    # Mid-fragment deliveries leave the run native-identical and its
    # event stream replay-exact.
    verdict = check(Cell(signal_image, options=detach_options))
    assert verdict.ok, verdict


def test_polls_are_free_when_disabled(loop_image):
    verdict = check(Cell(loop_image, columns=(
        Column("baseline"),
        Column("precise", options={"precise_interrupts": True}),
    )))
    assert verdict.ok, verdict


# -------------------------------------------------------- detach / native


def test_detach_then_native_is_bit_identical(loop_image):
    runtime, _ = _run(loop_image, client=DetachAtCall(at=7))
    assert runtime.stats.detaches == 1
    assert runtime.stats.reattaches == 0
    assert runtime.detached


def test_detach_with_pending_signal(signal_image):
    # Detach while alarms are armed: the pending deadline must carry
    # over and deliver during the native continuation.
    runtime, _ = _run(signal_image, client=DetachAtBuild(at=5))
    assert runtime.stats.detaches == 1
    assert runtime.system.signals_delivered >= 1


def test_translated_state_matches_interpreter(loop_image):
    snapshot = {}

    def spy_on_detach(runtime):
        original = runtime._perform_detach

        def spy():
            original()
            snapshot["state"] = runtime.threads[0].cpu.state_tuple()

        runtime._perform_detach = spy

    _run(loop_image, client=DetachAtCall(at=9), setup=spy_on_detach)
    assert snapshot, "detach never happened"

    # The translated state must be application-consistent: a pure
    # interpreter run from the program start passes through exactly
    # that architectural state (registers, flags, pc) at some step.
    # (Instruction *counts* are not the join key — the runtime elides
    # instructions, e.g. stitched jumps, so its counter legitimately
    # differs from native at the same architectural point.)
    interp = Interpreter(Process(loop_image))
    main = interp.adopt_thread(interp.cpu)
    main.cpu.pc = interp.process.entry
    main.cpu.regs[4] = interp.process.initial_stack_pointer()
    interp.threads = [main]
    interp.system.spawn_thread = interp._spawn
    target = snapshot["state"]
    seen = False
    for _ in range(50000):
        if main.cpu.state_tuple() == target:
            seen = True
            break
        try:
            interp._run_quantum(main, 1, 10**9)
        except Exception:
            break
    assert seen, "translated state never occurs natively: %r" % (target,)


# ------------------------------------------------------------- re-attach


def test_reattach_resumes_with_replay_exact_stats(loop_image):
    # The oracle replays the event stream onto the live stats.
    runtime, _ = _run(loop_image, client=DetachAtCall(at=7, reattach_after=600))
    assert runtime.stats.detaches == 1
    assert runtime.stats.reattaches == 1
    assert not runtime.detached
    # Fragments were rebuilt after the re-attach.
    assert _cached_fragments(runtime)


def test_dr_reattach_bounces_immediately(loop_image):
    class Bounce(DetachAtBuild):
        def basic_block(self, context, tag, ilist):
            self.calls += 1
            if self.calls == self.at:
                dr_detach(self)
                dr_reattach(self)

    runtime, _ = _run(loop_image, client=Bounce(at=4))
    assert runtime.stats.detaches == 1
    assert runtime.stats.reattaches == 1


def test_detach_unregisters_tracers_reattach_restores(loop_image):
    kinds = []

    class Tracing(DetachAtCall):
        def init(self):
            dr_register_event_tracer(self, lambda ev: kinds.append(ev.kind))

    runtime, _ = _run(loop_image, client=Tracing(at=7, reattach_after=400))
    # Tracers are unregistered *before* the detach event is emitted —
    # a detached client observes nothing, not even its own detach or
    # anything from the native window.  The first thing it sees again
    # is the re-attach.
    assert "detach" not in kinds
    assert "reattach" in kinds
    # But the observer itself recorded the detach.
    assert runtime.observer.counts["detach"] == 1
    # Re-attach restored the registration.
    assert len(runtime._client_tracers) == 1
    assert runtime._client_tracers[0] in runtime.observer.tracers


def test_detach_flushes_through_delete_chokepoint(loop_image):
    deleted = []

    class Watch(DetachAtCall):
        def fragment_deleted(self, context, tag):
            deleted.append(tag)

    runtime, _ = _run(loop_image, client=Watch(at=7))
    # Every cached fragment went through fragment_deleted; nothing is
    # left resident after a stay-native detach.
    assert deleted
    assert not _cached_fragments(runtime)
    assert runtime.observer.counts.get("fragment_delete")
