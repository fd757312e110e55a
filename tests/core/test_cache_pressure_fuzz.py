"""Property-based cache-pressure fuzz: seeded random policy matrix.

Each seed draws a random ``(workload, code_cache_limit, eviction
policy, adaptive sizing, trace/chain thresholds, client)`` cell and
runs it under all three execution engines.  The properties:

* **Engine bit-identity** — cycles, instructions, output, exit code
  and the full event/stat dictionaries are identical across the
  tuple, closure and chain engines (capacity management may change
  *overhead*, never the simulated machine's determinism).
* **Transparency** — output and exit code equal native execution, at
  every limit and policy.
* **No stale state survives eviction** — after the run: every resident
  fragment is live with a ``cache_addr`` inside its unit's span and no
  two residents overlap; every IBL entry and every linked exit stub
  points at a live fragment; every live chain passes
  ``ChainManager.check_integrity``.
* **Replay exactness** — when the seed enables tracing, replaying the
  (unbounded) event stream reconstructs the live counters exactly,
  including the new ``cache_fragment_evictions``/``cache_resizes``.
* **Memo transparency** — the cell without its client at a quarter of
  its limit (so blocks are evicted and rebuilt) runs once with the
  runtime's retranslation memo and once with one that never hits
  (every rebuild decodes and lowers afresh); nothing simulated
  changes: same cycles, instructions, output, exit code, events, and
  the same full event stream when traced.

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
from repro.core import DynamoRIO, RuntimeOptions
from repro.loader import Process
from repro.machine.cost import CostModel
from repro.machine.interp import run_native
from repro.minicc import compile_source
from repro.observe import replay_stats

from tests.conftest import INDIRECT_SRC, LOOP_SRC, NeverHitMemo

ENGINES = ("tuple", "closure", "chain")

CLIENTS = (
    ("none", lambda: None),
    ("inscount", InstructionCounter),
    ("redundant_load", RedundantLoadRemoval),
    ("inc2add", StrengthReduction),
    ("indirect_dispatch", IndirectBranchDispatch),
)

SOURCES = {"loop": LOOP_SRC, "indirect": INDIRECT_SRC}

_images = {}
_native = {}


def _image(name):
    if name not in _images:
        _images[name] = compile_source(SOURCES[name])
        _native[name] = run_native(Process(_images[name]))
    return _images[name]


def _draw_cell(seed):
    rng = random.Random(seed)
    return {
        "source": rng.choice(sorted(SOURCES)),
        "limit": rng.randrange(400, 2001),
        "policy": rng.choice(("flush", "fifo")),
        "adaptive": rng.random() < 0.4,
        "trace_threshold": rng.choice((3, 5, 20)),
        "chain_threshold": rng.choice((1, 4)),
        "client": rng.choice(CLIENTS),
        "traced": rng.random() < 0.5,
    }


def _options(cell, engine):
    opts = RuntimeOptions.with_traces()
    opts.code_cache_limit = cell["limit"]
    opts.cache_evict_policy = cell["policy"]
    opts.cache_adaptive = cell["adaptive"]
    opts.trace_threshold = cell["trace_threshold"]
    opts.closure_engine = engine in ("closure", "chain")
    opts.chain_engine = engine == "chain"
    opts.chain_threshold = cell["chain_threshold"]
    if cell["traced"]:
        opts.trace_events = True
        opts.trace_buffer = None  # unbounded: replay must be exact
    return opts


def _run(cell, engine, memo=None):
    runtime = DynamoRIO(
        Process(_image(cell["source"])),
        options=_options(cell, engine),
        client=cell["client"][1](),
        cost_model=CostModel(),
    )
    if memo is not None:
        runtime.bb_memo = memo
    result = runtime.run()
    return runtime, result


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
            # The unit's byte accounting matches its residents.  The
            # flush policy deliberately leaks removed/shadowed slots
            # until the next whole-unit flush (pre-fifo behavior, kept
            # bit-identical), so it only bounds from above.
            resident_bytes = sum(f.size for f in residents)
            if cache.policy == "fifo":
                assert cache.used() == resident_bytes
            else:
                assert cache.used() >= resident_bytes
        # Every IBL entry resolves to a live, resident fragment.
        for tag, fragment in thread.ibl.table.items():
            assert not fragment.deleted
            assert thread.lookup_fragment(tag) is fragment
    if runtime.chains is not None:
        assert runtime.chains.check_integrity() == []


def _check_seed(seed):
    cell = _draw_cell(seed)
    native = None
    runs = [_run(cell, engine) for engine in ENGINES]
    _image(cell["source"])  # ensure native result is cached
    native = _native[cell["source"]]

    reference = runs[0][1]
    for _runtime, result in runs[1:]:
        assert result.cycles == reference.cycles, cell
        assert result.instructions == reference.instructions, cell
        assert result.output == reference.output, cell
        assert result.exit_code == reference.exit_code, cell
        assert result.events == reference.events, cell

    # Transparency under pressure: native-identical behavior.
    assert reference.output == native.output, cell
    assert reference.exit_code == native.exit_code, cell

    # Memo column: a client bypasses the memo and the cell's own limit
    # seldom forces a block out and back in, so run it without the
    # client at a quarter of the limit, on an engine picked by seed.
    memo_cell = dict(cell, client=CLIENTS[0], limit=cell["limit"] // 4)
    engine = ENGINES[seed % len(ENGINES)]
    memo_runtime, memo_result = _run(memo_cell, engine)
    forced_runtime, forced = _run(memo_cell, engine, memo=NeverHitMemo())
    assert memo_runtime.stats.bbs_built > len(memo_runtime.bb_memo), cell
    assert memo_result.output == native.output, cell
    assert memo_result.exit_code == native.exit_code, cell
    assert forced.cycles == memo_result.cycles, cell
    assert forced.instructions == memo_result.instructions, cell
    assert forced.output == memo_result.output, cell
    assert forced.exit_code == memo_result.exit_code, cell
    assert forced.events == memo_result.events, cell
    if cell["traced"]:
        assert (
            forced_runtime.observer.events() == memo_runtime.observer.events()
        ), cell
    runs += [(memo_runtime, memo_result), (forced_runtime, forced)]

    for runtime, _result in runs:
        _assert_cache_invariants(runtime)

    if cell["traced"]:
        for runtime, _result in runs:
            observer = runtime.observer
            assert observer.dropped == 0
            assert replay_stats(observer.events()) == runtime.stats.as_dict()


@pytest.mark.parametrize("seed", range(16))
def test_cache_pressure_fuzz(seed):
    _check_seed(seed)


@pytest.mark.slow
@pytest.mark.parametrize("seed", range(16, 96))
def test_cache_pressure_fuzz_full(seed):
    _check_seed(seed)
