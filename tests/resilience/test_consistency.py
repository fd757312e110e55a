"""Cache consistency: stores into translated code invalidate fragments.

The self-modifying workload (from the chaos harness) patches the
immediate of its emitting ``mov`` mid-run.  Natively the interpreter's
decode cache notices the store; under the runtime the
``cache_consistency`` write-watch must invalidate the stale fragments
(and any traces that stitched them) so the rebuilt code sees the new
bytes.  Without the flag the stale translation keeps executing — which
is exactly the divergence the feature closes.
"""

import pytest

from repro.clients import InstructionCounter
from repro.core import DynamoRIO, RuntimeOptions
from repro.core import runtime as runtime_module
from repro.core.code_cache import CodeRegionMap
from repro.loader import Process
from repro.machine.interp import run_native
from repro.resilience.faultinject import RuntimeFaultPlan
from repro.tools.chaos import build_smc_image

from tests.conftest import NeverHitMemo


@pytest.fixture(scope="module")
def smc_image():
    return build_smc_image()


@pytest.fixture(scope="module")
def smc_native(smc_image):
    return run_native(Process(smc_image))


def _smc_options(closure_engine, consistency=True):
    options = RuntimeOptions.with_traces()
    options.closure_engine = closure_engine
    options.cache_consistency = consistency
    options.trace_events = True
    options.trace_buffer = None
    options.trace_threshold = 3  # traces stitch the patched block early
    return options


def test_native_smc_output_shape(smc_native):
    # 7 iterations emit 'A', the patch lands in iteration 6 (after that
    # pass's call), the remaining 5 emit 'B'.
    assert smc_native.output == b"A" * 7 + b"B" * 5
    assert smc_native.exit_code == 0


@pytest.mark.parametrize("closure_engine", [True, False])
def test_smc_invalidation_matches_native(
    smc_image, smc_native, closure_engine
):
    runtime = DynamoRIO(
        Process(smc_image), options=_smc_options(closure_engine)
    )
    result = runtime.run()
    assert result.output == smc_native.output
    assert result.exit_code == smc_native.exit_code
    assert runtime.stats.smc_invalidations >= 1
    counts = runtime.observer.counts
    assert counts["smc_invalidate"] == runtime.stats.smc_invalidations
    # The invalidation deleted at least one fragment.
    assert runtime.stats.fragments_deleted >= 1


def test_smc_diverges_without_consistency(smc_image, smc_native):
    """The flag is load-bearing: without it the stale 'A' fragment keeps
    running and the patch is never picked up."""
    runtime = DynamoRIO(
        Process(smc_image),
        options=_smc_options(closure_engine=True, consistency=False),
    )
    result = runtime.run()
    assert result.output == b"A" * 12
    assert result.output != smc_native.output
    assert runtime.stats.smc_invalidations == 0


def test_smc_engines_bit_identical(smc_image):
    results = [
        DynamoRIO(
            Process(smc_image), options=_smc_options(engine)
        ).run()
        for engine in (True, False)
    ]
    a, b = results
    assert a.cycles == b.cycles
    assert a.instructions == b.instructions
    assert a.output == b.output
    assert a.events == b.events


def test_smc_invalidation_charges_cycles(smc_image):
    """Invalidation is modeled work: the consistency run costs more
    simulated cycles than a (wrong-output) run without it."""
    with_it = DynamoRIO(
        Process(smc_image), options=_smc_options(True)
    ).run()
    without = DynamoRIO(
        Process(smc_image),
        options=_smc_options(True, consistency=False),
    ).run()
    assert with_it.cycles > without.cycles


# ----------------------------------------------------- retranslation memo


def _counting_decoder(monkeypatch):
    """Count ``build_basic_block`` calls (the decodes a memo hit skips)
    by tag."""
    decoded = []
    original = runtime_module.build_basic_block

    def counted(memory, tag, *args, **kwargs):
        decoded.append(tag)
        return original(memory, tag, *args, **kwargs)

    monkeypatch.setattr(runtime_module, "build_basic_block", counted)
    return decoded


def _run_memo(image, options, memo=None, client=None):
    runtime = DynamoRIO(Process(image), options=options, client=client)
    if memo is not None:
        runtime.bb_memo = memo
    return runtime, runtime.run()


def _simulated(runtime, result):
    return (
        result.cycles,
        result.instructions,
        result.output,
        result.exit_code,
        result.events,
        runtime.observer.events() if runtime.observer is not None else None,
    )


@pytest.mark.parametrize("consistency", [True, False])
def test_smc_under_flushes_memo_sees_the_patch(
    smc_image, smc_native, monkeypatch, consistency
):
    """A 200-byte cache flushes the patched block out and back in.  With
    or without the write watch, the rebuild must see the new bytes: the
    memo compares them, so a hit can never serve the stale 'A' body."""
    decoded = _counting_decoder(monkeypatch)
    options = _smc_options(True, consistency)
    options.code_cache_limit = 200
    runtime, result = _run_memo(smc_image, options)
    assert result.output == smc_native.output
    assert result.exit_code == smc_native.exit_code
    assert runtime.stats.cache_evictions > 0
    assert len(decoded) < runtime.stats.bbs_built  # the memo did hit

    options = _smc_options(True, consistency)
    options.code_cache_limit = 200
    forced = _run_memo(smc_image, options, NeverHitMemo())
    assert _simulated(runtime, result) == _simulated(*forced)


def test_memo_decodes_each_block_once(loop_image, loop_native, monkeypatch):
    """No client, a tiny flushing cache: every rebuild after the first
    decode of a block is a memo hit."""
    decoded = _counting_decoder(monkeypatch)
    options = RuntimeOptions.with_traces()
    options.code_cache_limit = 300
    runtime, result = _run_memo(loop_image, options)
    assert result.output == loop_native.output
    assert len(decoded) == len(set(decoded)) == len(runtime.bb_memo)
    assert runtime.stats.bbs_built >= 3 * len(decoded)


@pytest.mark.parametrize("site", ["bb_build", "emit"])
def test_memo_hits_pass_the_shield_chokepoints(loop_image, monkeypatch, site):
    """A hit is a build to drshield too: injected build/emit faults fire
    at the same builds, and the ladder climbs identically."""
    decoded = _counting_decoder(monkeypatch)

    def run(memo=None):
        options = RuntimeOptions.with_traces()
        options.code_cache_limit = 300
        options.shield = True
        options.trace_events = True
        options.trace_buffer = None
        runtime = DynamoRIO(Process(loop_image), options=options)
        runtime.rguard.plan = RuntimeFaultPlan(
            "runtime_raise:" + site, 0, start=60, period=80
        )
        if memo is not None:
            runtime.bb_memo = memo
        return runtime, runtime.run()

    runtime, result = run()
    assert runtime.rguard.injected > 0
    assert len(decoded) < runtime.stats.bbs_built  # the memo did hit
    assert _simulated(runtime, result) == _simulated(*run(NeverHitMemo()))


def test_memo_bypassed_for_clients(loop_image, monkeypatch):
    """A client's bb hook sees every build: nothing is memoized."""
    decoded = _counting_decoder(monkeypatch)
    options = RuntimeOptions.with_traces()
    options.code_cache_limit = 300
    runtime, _result = _run_memo(
        loop_image, options, client=InstructionCounter()
    )
    assert runtime.stats.client_bb_hooks == runtime.stats.bbs_built
    assert len(decoded) == runtime.stats.bbs_built
    assert runtime.bb_memo == {}


def test_memo_bypassed_under_verify_equivalence(loop_image):
    """drequiv checks every build against its source blocks, so no
    rebuild may skip the emit-time proof."""

    def options():
        made = RuntimeOptions.with_traces()
        made.code_cache_limit = 300
        made.verify_equivalence = True
        return made

    runtime, result = _run_memo(loop_image, options())
    forced, forced_result = _run_memo(loop_image, options(), NeverHitMemo())
    assert runtime.bb_memo == {}
    assert runtime.verifier_diagnostics == forced.verifier_diagnostics
    assert result.cycles == forced_result.cycles
    assert result.events == forced_result.events


# ------------------------------------------------------------- region map


class _WatchRecorder:
    """Stands in for Memory: records the armed watch ranges."""

    def __init__(self):
        self.ranges = []

    def watch_range(self, start, end):
        self.ranges.append((start, end))


class _Frag:
    def __init__(self, tag):
        self.tag = tag
        self.deleted = False


def test_region_map_exact_overlap_filter():
    memory = _WatchRecorder()
    rmap = CodeRegionMap()
    frag = _Frag(0x1000)
    rmap.register(frag, ((0x1000, 0x1010),), "t0", memory)
    assert memory.ranges == [(0x1000, 0x1010)]
    assert len(rmap) == 1

    # Same 64-byte line, but no byte overlap: not a hit.
    assert rmap.overlapping(0x1010, 4) == []
    assert rmap.overlapping(0x0FF0, 0x10) == []
    # Exact overlaps, including single-byte and boundary-straddling.
    assert rmap.overlapping(0x100F, 1) == [(frag, "t0")]
    assert rmap.overlapping(0x0FFE, 4) == [(frag, "t0")]
    assert rmap.overlapping(0x1000, 0x10) == [(frag, "t0")]


def test_region_map_multi_span_and_unregister():
    memory = _WatchRecorder()
    rmap = CodeRegionMap()
    trace = _Frag(0x2000)
    # A trace stitched from two source regions: a write into either
    # span must report it (deduplicated, once).
    rmap.register(trace, ((0x2000, 0x2008), (0x2100, 0x2108)), "t0", memory)
    assert rmap.overlapping(0x2004, 1) == [(trace, "t0")]
    assert rmap.overlapping(0x2100, 2) == [(trace, "t0")]
    assert rmap.overlapping(0x2000, 0x200) == [(trace, "t0")]

    rmap.unregister(trace)
    assert len(rmap) == 0
    assert rmap.overlapping(0x2004, 1) == []
    # Unregistering twice is a no-op.
    rmap.unregister(trace)


def test_region_map_empty_spans_ignored():
    rmap = CodeRegionMap()
    frag = _Frag(0x3000)
    rmap.register(frag, ((0x3000, 0x3000),), "t0", _WatchRecorder())
    assert len(rmap) == 0
