"""Property-based cache-pressure fuzz: seeded random policy matrix.

Each seed draws a random ``(workload, code_cache_limit, eviction
policy, trace threshold, client)`` cell, the policy one of flush, fifo
and adaptive, and checks it with the differential oracle
(``repro.tools.oracle``).  The properties:

* **Transparency** — output, exit code and (when native takes no
  signal) final registers and eflags equal native execution, at every
  limit and policy.
* **No stale state survives eviction** — after the run: every resident
  fragment is live with a ``cache_addr`` inside its unit's span and no
  two residents overlap; every IBL entry and every linked exit stub
  points at a live fragment.
* **Replay exactness** — when the seed enables tracing, replaying the
  (unbounded) event stream reconstructs the live counters exactly,
  including the new ``cache_fragment_evictions``/``cache_resizes``.
* **Memo transparency** — the cell without its client at a quarter of
  its limit (so blocks and traces are evicted and rebuilt) runs once
  with the runtime's retranslation memo and once with a memo that
  never hits (every block rebuild decodes and lowers afresh, every
  trace rebuild stitches afresh); nothing simulated changes: same
  cycles, instructions, output, exit code, events, and the same full
  event stream when traced.  Over the tier-1 seeds the memo must serve
  a trace at least once.

Seeds 0-15 run in tier-1; the wider sweep rides behind ``slow``.
"""

import random

import pytest

from repro.clients import (
    IndirectBranchDispatch,
    InstructionCounter,
    RedundantLoadRemoval,
    StrengthReduction,
)
from repro.core import RuntimeOptions
from repro.minicc import compile_source
from repro.tools.oracle import Cell, check

from tests.conftest import INDIRECT_SRC, LOOP_SRC, memo_columns, memo_keys

CLIENTS = (
    ("none", lambda: None),
    ("inscount", InstructionCounter),
    ("redundant_load", RedundantLoadRemoval),
    ("inc2add", StrengthReduction),
    ("indirect_dispatch", IndirectBranchDispatch),
)

SOURCES = {"loop": LOOP_SRC, "indirect": INDIRECT_SRC}

_images = {}


def _image(name):
    if name not in _images:
        _images[name] = compile_source(SOURCES[name])
    return _images[name]


def _draw_cell(seed):
    rng = random.Random(seed)
    return {
        "source": rng.choice(sorted(SOURCES)),
        "limit": rng.randrange(400, 2001),
        "policy": rng.choice(("flush", "fifo", "adaptive")),
        "trace_threshold": rng.choice((3, 5, 20)),
        "client": rng.choice(CLIENTS),
        "traced": rng.random() < 0.5,
    }


def _cell(cell, **extra):
    def options():
        opts = RuntimeOptions.with_traces()
        opts.code_cache_limit = cell["limit"]
        opts.cache_evict_policy = cell["policy"]
        opts.trace_threshold = cell["trace_threshold"]
        if cell["traced"]:
            opts.trace_events = True
            opts.trace_buffer = None  # unbounded: replay must be exact
        return opts

    return Cell(
        _image(cell["source"]), options=options, client=cell["client"][1],
        **extra,
    )


def _assert_cache_invariants(runtime):
    """Nothing stale survived the evictions."""
    seen = set()
    for thread in runtime.threads:
        for cache in (thread.bb_cache, thread.trace_cache):
            if id(cache) in seen:
                continue
            seen.add(id(cache))
            residents = sorted(
                cache.fragments.values(), key=lambda f: f.cache_addr
            )
            prev_end = cache.base
            for fragment in residents:
                assert not fragment.deleted
                assert fragment.cache_addr is not None
                # In-bounds and non-overlapping within the unit's span.
                assert fragment.cache_addr >= prev_end
                prev_end = fragment.cache_addr + fragment.size
                assert prev_end <= cache.cursor
                for stub in fragment.exits:
                    # Stubs belong to exactly one incarnation: never
                    # shared with a fragment re-emitted over the same
                    # lowered body.
                    assert stub.fragment is fragment
                    # Linked exits must target live fragments.
                    if stub.linked_to is not None:
                        assert not stub.linked_to.deleted
            # The unit's byte accounting matches its residents: every
            # policy frees removed and shadowed slots.
            assert cache.used() == sum(f.size for f in residents)
        # Every IBL entry resolves to a live, resident fragment.
        for tag, fragment in thread.ibl.table.items():
            assert not fragment.deleted
            assert thread.lookup_fragment(tag) is fragment


# Tier-1 seeds whose memo cell has run -> its trace-memo hits.
_TRACE_MEMO_HITS = {}


def _check_seed(seed):
    cell = _draw_cell(seed)
    verdict = check(_cell(cell))
    assert verdict.ok, (cell, verdict)

    # Memo column: a client bypasses the memo and the cell's own limit
    # seldom forces a block out and back in, so run it without the
    # client at a quarter of the limit.
    memo_cell = dict(cell, client=CLIENTS[0], limit=cell["limit"] // 4)
    memo = check(_cell(memo_cell, columns=memo_columns()))
    assert memo.ok, (cell, memo)
    memo_runtime = memo["memo"].runtime
    blocks, traces = memo_keys(memo_runtime)
    assert memo_runtime.stats.bbs_built > len(blocks), cell
    _TRACE_MEMO_HITS[seed] = memo_runtime.stats.traces_built - len(traces)

    for run in verdict.runs + memo.runs:
        _assert_cache_invariants(run.runtime)


@pytest.mark.parametrize("seed", range(16))
def test_cache_pressure_fuzz(seed):
    _check_seed(seed)


def test_cache_pressure_fuzz_trace_memo_hits():
    """The memo cells rebuild traces, so the memo's transparency is
    checked on trace hits too: one happens in at least one tier-1 seed
    (seeds this test process has not run yet are run here)."""
    for seed in range(16):
        if seed not in _TRACE_MEMO_HITS:
            _check_seed(seed)
    assert any(_TRACE_MEMO_HITS[seed] for seed in range(16))


@pytest.mark.slow
@pytest.mark.parametrize("seed", range(16, 96))
def test_cache_pressure_fuzz_full(seed):
    _check_seed(seed)
