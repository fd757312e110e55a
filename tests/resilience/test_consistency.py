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
from repro.core import RuntimeOptions
from repro.core import runtime as runtime_module
from repro.core.code_cache import CodeRegionMap
from repro.resilience.faultinject import RuntimeFaultPlan
from repro.tools.chaos import build_smc_image
from repro.tools.oracle import Cell, Column, check, native_result

from tests.conftest import memo_columns


@pytest.fixture(scope="module")
def smc_image():
    return build_smc_image()


def _smc_options(consistency=True, code_cache_limit=None):
    def options():
        made = RuntimeOptions.with_traces()
        made.cache_consistency = consistency
        made.code_cache_limit = code_cache_limit
        made.trace_events = True
        made.trace_buffer = None
        made.trace_threshold = 3  # traces stitch the patched block early
        return made

    return options


def _check(image, options, **cell):
    verdict = check(Cell(image, options=options, **cell))
    assert verdict.ok, verdict
    return verdict


def test_native_smc_output_shape(smc_image):
    # 7 iterations emit 'A', the patch lands in iteration 6 (after that
    # pass's call), the remaining 5 emit 'B'.
    native = native_result(smc_image)
    assert native.output == b"A" * 7 + b"B" * 5
    assert native.exit_code == 0


def test_smc_invalidation_matches_native(smc_image):
    runtime = _check(smc_image, _smc_options()).runs[0].runtime
    assert runtime.stats.smc_invalidations >= 1
    counts = runtime.observer.counts
    assert counts["smc_invalidate"] == runtime.stats.smc_invalidations
    # The invalidation deleted at least one fragment.
    assert runtime.stats.fragments_deleted >= 1


def test_smc_diverges_without_consistency(smc_image):
    """The flag is load-bearing: without it the stale 'A' fragment keeps
    running and the patch is never picked up."""
    verdict = check(Cell(smc_image, options=_smc_options(consistency=False)))
    assert verdict.failed() == {"output"}
    run = verdict.runs[0]
    assert run.result.output == b"A" * 12
    assert run.runtime.stats.smc_invalidations == 0


def test_smc_engines_bit_identical(smc_image):
    _check(smc_image, _smc_options())


def test_smc_invalidation_charges_cycles(smc_image):
    """Invalidation is modeled work: the consistency run costs more
    simulated cycles than a (wrong-output) run without it."""
    verdict = check(Cell(smc_image, options=_smc_options(), columns=(
        Column("with"), Column("without", options={"cache_consistency": False}),
    )))
    # The run without the watch diverges from native (see above); only
    # the two runs' cycles matter here.
    with_it, without = (run.result for run in verdict.runs)
    assert with_it.cycles > without.cycles


# ----------------------------------------------------- retranslation memo


def _counting_decoder(monkeypatch):
    """Record ``build_basic_block`` calls (the decodes a memo hit skips);
    ``decodes(runtime)`` lists the tags one runtime decoded."""
    decoded = []
    original = runtime_module.build_basic_block

    def counted(memory, tag, *args, **kwargs):
        decoded.append((memory, tag))
        return original(memory, tag, *args, **kwargs)

    monkeypatch.setattr(runtime_module, "build_basic_block", counted)
    return lambda runtime: [
        tag for memory, tag in decoded if memory is runtime.memory
    ]


@pytest.mark.parametrize("consistency", [True, False])
def test_smc_under_flushes_memo_sees_the_patch(
    smc_image, monkeypatch, consistency
):
    """A 200-byte cache flushes the patched block out and back in.  With
    or without the write watch, the rebuild must see the new bytes: the
    memo compares them, so a hit can never serve the stale 'A' body
    (the oracle holds both columns to native and to each other)."""
    decodes = _counting_decoder(monkeypatch)
    verdict = _check(
        smc_image, _smc_options(consistency, code_cache_limit=200),
        columns=memo_columns(),
    )
    runtime = verdict["memo"].runtime
    assert runtime.stats.cache_evictions > 0
    assert len(decodes(runtime)) < runtime.stats.bbs_built  # the memo did hit


def _tiny_cache(**overrides):
    def options():
        made = RuntimeOptions.with_traces()
        made.code_cache_limit = 300
        for key, value in overrides.items():
            setattr(made, key, value)
        return made

    return options


def test_memo_decodes_each_block_once(loop_image, monkeypatch):
    """No client, a tiny flushing cache: every rebuild after the first
    decode of a block is a memo hit."""
    decodes = _counting_decoder(monkeypatch)
    runtime = _check(loop_image, _tiny_cache()).runs[0].runtime
    decoded = decodes(runtime)
    assert len(decoded) == len(set(decoded)) == len(runtime.bb_memo)
    assert runtime.stats.bbs_built >= 3 * len(decoded)


@pytest.mark.parametrize("site", ["bb_build", "emit"])
def test_memo_hits_pass_the_shield_chokepoints(loop_image, monkeypatch, site):
    """A hit is a build to drshield too: injected build/emit faults fire
    at the same builds, and the ladder climbs identically."""
    decodes = _counting_decoder(monkeypatch)

    def install_plan(runtime):
        runtime.rguard.plan = RuntimeFaultPlan(
            "runtime_raise:" + site, 0, start=60, period=80
        )

    verdict = _check(
        loop_image, _tiny_cache(shield=True, trace_events=True,
                                trace_buffer=None),
        columns=memo_columns(), setup=install_plan,
    )
    runtime = verdict["memo"].runtime
    assert runtime.rguard.injected > 0
    assert len(decodes(runtime)) < runtime.stats.bbs_built  # the memo did hit


def test_memo_bypassed_for_clients(loop_image, monkeypatch):
    """A client's bb hook sees every build: nothing is memoized."""
    decodes = _counting_decoder(monkeypatch)
    runtime = _check(
        loop_image, _tiny_cache(), client=InstructionCounter
    ).runs[0].runtime
    assert runtime.stats.client_bb_hooks == runtime.stats.bbs_built
    assert len(decodes(runtime)) == runtime.stats.bbs_built
    assert runtime.bb_memo == {}


def test_memo_bypassed_under_verify_equivalence(loop_image):
    """drequiv checks every build against its source blocks, so no
    rebuild may skip the emit-time proof."""
    verdict = _check(
        loop_image, _tiny_cache(verify_equivalence=True),
        columns=memo_columns(),
    )
    runtime, forced = (run.runtime for run in verdict.runs)
    assert runtime.bb_memo == {}
    assert runtime.verifier_diagnostics == forced.verifier_diagnostics


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
