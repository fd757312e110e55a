"""Regression: cache eviction racing fragment replacement.

An absurdly small code cache forces unit flushes (core/runtime.py
``_place``) while a client keeps calling ``dr_replace_fragment`` from
clean calls *inside* the fragments being replaced.  The hazard under
test: a flush deletes a replaced fragment (or the replacement itself),
and a stale exit stub or IBL entry funnels execution into freed code.
Transparent output proves no stale-stub execution; with tracing on,
the recorded ``fragment_delete`` / ``cache_eviction`` events must
reconstruct the live counters exactly.
"""

import pytest

from repro.core import RuntimeOptions
from repro.tools.oracle import Cell, check

from tests.conftest import ChurningClient


def _churn(image, policy="flush", trace_threshold=5):
    """One churning run, checked by the differential oracle: output
    identical to native (no stale-stub execution) and the unbounded
    event stream replaying exactly onto the live counters (every
    deletion/eviction the stats saw, nothing double-counted or
    missed).  Returns (client, result)."""

    def options():
        opts = RuntimeOptions.with_traces()
        opts.code_cache_limit = 700  # constant pressure (test_cache_and_stubs)
        opts.cache_evict_policy = policy
        opts.trace_threshold = trace_threshold
        opts.trace_events = True
        opts.trace_buffer = None  # unbounded: replay must be exact
        return opts

    verdict = check(Cell(
        image, options=options, client=ChurningClient, columns=("closure",),
    ))
    assert verdict.ok, verdict
    return verdict.runs[0]


@pytest.mark.parametrize("policy", ["flush", "fifo"])
def test_eviction_during_replacement_stays_transparent(loop_image, policy):
    run = _churn(loop_image, policy)
    client, result = run.client, run.result

    # The interplay actually happened: fragments were replaced AND the
    # cache evicted fragments (including replaced ones) mid-run.
    assert client.replacements >= 1
    assert result.events["fragments_replaced"] == client.replacements
    assert result.events["cache_evictions"] >= 1
    if policy == "fifo":
        # Per-victim accounting only exists under single-fragment
        # eviction; a flush drops whole units without it.
        assert result.events["cache_fragment_evictions"] >= 1
    assert result.events["fragments_deleted"] >= 1
    assert client.deletions == result.events["fragments_deleted"]
    # Tags were re-replaced after eviction rebuilt them.
    assert client.replacements > len(client.replaced)


@pytest.mark.parametrize("policy", ["flush", "fifo"])
def test_no_stale_fragments_remain(loop_image, policy):
    """After the run, every live cache entry is a non-deleted fragment
    and every linked stub points at a live fragment."""
    thread = _churn(loop_image, policy).runtime.current_thread
    for cache in (thread.bb_cache, thread.trace_cache):
        for fragment in cache.fragments.values():
            assert not fragment.deleted
            for stub in fragment.exits:
                if stub.linked_to is not None:
                    assert not stub.linked_to.deleted


def test_fifo_eviction_trace_heads_and_replacement(indirect_image):
    """Single-fragment eviction interleaved with trace-head promotion
    and in-fragment replacement on the indirect workload: hair-trigger
    tracing means victims are routinely trace heads or trace members,
    and the churning client re-replaces every rebuild."""
    run = _churn(
        indirect_image, policy="fifo",
        trace_threshold=3,  # promotions throughout the run
    )
    client, result = run.client, run.result

    assert result.events["traces_built"] >= 1
    assert result.events["trace_head_counts"] >= 1
    assert result.events["cache_fragment_evictions"] >= 1
    assert client.replacements >= 1
    assert result.events["fragments_replaced"] == client.replacements


def test_fifo_eviction_squashes_stale_recording(loop_image):
    """A FIFO eviction that deletes a block referenced by an
    in-progress trace recording must abandon the recording — the fifo
    analogue of the whole-flush squash (test_cache_and_stubs)."""
    from repro.core import DynamoRIO
    from repro.core.trace_builder import TraceRecording
    from repro.loader import Process

    opts = RuntimeOptions.with_traces()
    opts.cache_evict_policy = "fifo"
    opts.cache_consistency = True
    runtime = DynamoRIO(Process(loop_image), options=opts)
    thread = runtime.current_thread

    first = runtime._build_bb(loop_image.entry)
    recording = TraceRecording(first.tag)
    recording.append(first)
    thread.trace_in_progress = recording

    # Shrink the unit under its occupancy: the next build must evict
    # `first` (the FIFO front) out from under the recording.
    thread.bb_cache.limit = thread.bb_cache.used()
    runtime._build_bb(first.source_spans[0][1])

    assert first.deleted
    assert runtime.stats.cache_fragment_evictions >= 1
    assert thread.trace_in_progress is None
