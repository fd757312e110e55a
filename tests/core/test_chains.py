"""Chain compiler: promotion, and demotion at every unlink chokepoint.

The chain engine (``repro.core.chains``) stitches hot linked fragments
into dispatch-free super-tables.  Each baked transfer assumes its link
stays up, so every runtime path that tears links down — cache eviction,
``dr_replace_fragment``, SMC invalidation, client quarantine, trace
shadowing — must dissolve the chains embedding the touched fragments.
These tests drive each chokepoint against a *live* chain mid-run and
assert (a) chains were actually built and then demoted, and (b) the
differential oracle (``repro.tools.oracle``) holds the run
bit-identical to the tuple and plain-closure engines and to native —
the chain tier is wall-clock-only by contract.
"""

from repro.core import RuntimeOptions
from repro.tools.chaos import build_smc_image, workload_images
from repro.tools.oracle import ENGINES, Cell, check

from tests.conftest import ChurningClient


def _engine_options(factory, **overrides):
    def options():
        made = factory()
        made.chain_threshold = 1  # promote on the first pass
        for name, value in overrides.items():
            setattr(made, name, value)
        return made

    return options


def _check(image, factory, client=lambda: None, columns=ENGINES,
           **overrides):
    """The oracle's verdict on ``columns`` (by default all three engines,
    bit-identical to each other and to native); returns the chain run's
    (runtime, result) for scenario-specific assertions."""
    verdict = check(Cell(
        image, options=_engine_options(factory, **overrides), client=client,
        columns=columns,
    ))
    assert verdict.ok, verdict
    chain = verdict.runs[-1]
    return chain.runtime, chain.result


def _chain_report(runtime):
    assert runtime.chains is not None
    return runtime.chains.report()


# ------------------------------------------------------------- promotion

def test_chains_promote_only_at_threshold(loop_image):
    runtime, _ = _check(
        loop_image, RuntimeOptions.with_indirect_links, columns=("chain",),
        chain_threshold=10_000_000,
    )
    assert _chain_report(runtime)["chains_built"] == 0

    runtime, _ = _check(
        loop_image, RuntimeOptions.with_indirect_links, columns=("chain",)
    )
    assert _chain_report(runtime)["chains_built"] > 0


def test_chain_manager_absent_off_chain_engines(loop_image):
    verdict = check(Cell(loop_image, columns=("closure",)))
    assert verdict.ok, verdict
    assert verdict["closure"].runtime.chains is None


def test_chain_segments_clear_stale_af():
    """Regression: the generated segments' flag templates cleared
    ~2253, which keeps AF (16), so an add/sub/inc/dec/logic op OR-ed
    the new AF into the old one.  No Jcc reads AF, but the chaos loop
    workload ended with eflags 0x54 on the chain engine and 0x44 on the
    others — and signal frames push eflags where the guest can see it."""
    verdict = check(Cell(
        workload_images()["loop"],
        options=_engine_options(RuntimeOptions.with_traces),
        columns=("closure", "chain"),
    ))
    assert verdict.ok, verdict  # final_state compares per-thread eflags
    closure, chain = (run.runtime for run in verdict.runs)
    assert _chain_report(chain)["chains_built"] > 0
    assert chain.threads[0].cpu.eflags == closure.threads[0].cpu.eflags


# -------------------------------------------------- eviction chokepoint

def test_eviction_demotes_live_chains(loop_image):
    """A tiny code cache keeps flushing fragments out from under their
    chains; every flush must dissolve the embedding chains."""
    runtime, result = _check(
        loop_image, RuntimeOptions.with_traces,
        code_cache_limit=700, trace_threshold=5,
    )
    assert result.events["cache_evictions"] >= 1
    report = _chain_report(runtime)
    assert report["chains_built"] >= 1
    assert report["chains_invalidated"] >= 1


# ----------------------------------------------- replacement chokepoint

def test_replace_fragment_demotes_live_chains(loop_image):
    # The client replaces every fragment from a clean call inside it,
    # so replacement lands while the fragment's chain is live.
    runtime, result = _check(
        loop_image, RuntimeOptions.with_traces, client=ChurningClient,
        trace_threshold=5,
    )
    assert result.events["fragments_replaced"] >= 1
    report = _chain_report(runtime)
    assert report["chains_built"] >= 1
    assert report["chains_invalidated"] >= 1


# ------------------------------------------------------- SMC chokepoint

def test_smc_invalidation_demotes_live_chains():
    """The self-modifying workload patches a block that hot chains have
    stitched; the write-watch delete must demote them so the rebuilt
    code (emitting 'B') executes instead of the stale chain."""
    image = build_smc_image()
    runtime, result = _check(
        image, RuntimeOptions.with_traces,
        cache_consistency=True, trace_threshold=3,
    )
    assert runtime.stats.smc_invalidations >= 1
    report = _chain_report(runtime)
    assert report["chains_built"] >= 1
    assert report["chains_invalidated"] >= 1
    # Transparency through the patch: stale chains would keep printing 'A'.
    assert result.output == b"A" * 7 + b"B" * 5


# ------------------------------------------------ quarantine chokepoint

def test_client_quarantine_demotes_live_chains(loop_image):
    """Guard quarantine flushes every cache (OSR-style bailout); the
    flush funnels through fragment deletion and must take all live
    chains down with it."""
    from repro.resilience.faultinject import FaultInjectingClient, FaultPlan

    def client():
        return FaultInjectingClient(FaultPlan("raise_in_hook", 0))

    runtime, _ = _check(
        loop_image, RuntimeOptions.with_traces, client=client,
        guard_clients=True, trace_threshold=5,
    )
    assert runtime.stats.client_faults >= 1
    report = _chain_report(runtime)
    assert report["chains_built"] >= 1
    assert report["chains_invalidated"] >= 1


# -------------------------------------------- trace-shadowing chokepoint

def test_trace_creation_demotes_bb_chains(loop_image):
    """With chains promoting faster than traces build, the hot loop's
    bb chain is live when its head gets promoted and later shadowed by
    a trace — both funnel through chain invalidation."""
    runtime, result = _check(
        loop_image, RuntimeOptions.with_traces, trace_threshold=20,
    )
    assert result.events["traces_built"] >= 1
    report = _chain_report(runtime)
    assert report["chains_built"] >= 1
    assert report["chains_invalidated"] >= 1
