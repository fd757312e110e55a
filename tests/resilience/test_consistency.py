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

from repro.api.dr import dr_decode_fragment, dr_replace_fragment
from repro.asm.builder import CodeBuilder, mem
from repro.clients import InstructionCounter
from repro.core import RuntimeOptions, closures
from repro.core import runtime as runtime_module
from repro.core.code_cache import CodeRegionMap
from repro.isa.registers import Reg
from repro.resilience.faultinject import RuntimeFaultPlan
from repro.resilience.shield import InjectedRuntimeFault
from repro.tools.chaos import build_smc_image
from repro.tools.oracle import Cell, Column, check, native_result

from tests.conftest import memo_columns, memo_keys


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
    assert len(decoded) == len(set(decoded)) == len(memo_keys(runtime)[0])
    assert runtime.stats.bbs_built >= 3 * len(decoded)


def test_memo_rebuilds_compile_nothing(loop_image, monkeypatch):
    """No client, a tiny flushing cache, no links: every rebuild of a
    block runs the one generated function of its memoized body, with
    stubs of its own, so each distinct body is compiled once.  A
    dr_replace_fragment still lowers and compiles a new body."""
    compiled = []
    bind_body = closures._bind_body

    def counted(body, *args):
        compiled.append(body)
        return bind_body(body, *args)

    monkeypatch.setattr(closures, "_bind_body", counted)
    built = {}  # tag -> [(fragment, its generated function when placed)]

    def record_placements(runtime):
        place = runtime._place

        def recorded(cache, fragment, thread=None):
            built.setdefault(fragment.tag, []).append(
                (fragment, fragment.body.entry)
            )
            return place(cache, fragment, thread=thread)

        runtime._place = recorded

    def options():
        made = RuntimeOptions.bb_cache_only()
        made.code_cache_limit = 300
        return made

    runtime = _check(
        loop_image, options, setup=record_placements
    ).runs[0].runtime
    assert runtime.stats.cache_evictions > 0
    rebuilt = [placed for placed in built.values() if len(placed) > 1]
    assert rebuilt, "the tiny cache forced no rebuild"
    for placed in rebuilt:
        assert len({id(entry) for _fragment, entry in placed}) == 1
        stubs = [stub for fragment, _entry in placed for stub in fragment.exits]
        assert len({id(stub) for stub in stubs}) == len(stubs)
        assert all(
            stub.fragment is fragment
            for fragment, _entry in placed for stub in fragment.exits
        )
    bodies = {
        id(fragment.body): fragment.body
        for placed in built.values() for fragment, _entry in placed
    }
    assert sorted(map(id, compiled)) == sorted(bodies)

    thread = runtime.current_thread
    tag = next(iter(thread.bb_cache.fragments))
    old = thread.lookup_fragment(tag)
    before = len(compiled)
    assert dr_replace_fragment(thread, tag, dr_decode_fragment(thread, tag))
    new = thread.lookup_fragment(tag)
    assert new.body is not old.body
    assert new.body.entry is not old.body.entry
    assert compiled[before:] == [new.body]


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
    assert runtime.memo == {}


def test_memo_bypassed_under_verification(loop_image):
    """Verification (drequiv included) checks every build against its
    source blocks, so no rebuild may skip the emit-time proof."""
    verdict = _check(
        loop_image, _tiny_cache(verify_fragments=True),
        columns=memo_columns(),
    )
    runtime, forced = (run.runtime for run in verdict.runs)
    assert runtime.memo == {}
    assert runtime.verifier_diagnostics == forced.verifier_diagnostics


# ------------------------------------------------------------ trace memo


def _trace_churn(**overrides):
    """A cache small enough that the loop's traces are evicted and
    rebuilt, and large enough that they form at all."""
    return _tiny_cache(code_cache_limit=400, trace_threshold=3, **overrides)


def _counting_stitcher(monkeypatch):
    """Record the stitch inputs ``(head, block bodies...)`` of every
    ``stitch_trace`` call (the stitches a trace-memo hit skips)."""
    stitched = []
    original = runtime_module.stitch_trace

    def counted(recording, *args, **kwargs):
        stitched.append(
            (recording.head_tag,)
            + tuple(block.body for block in recording.entries)
        )
        return original(recording, *args, **kwargs)

    monkeypatch.setattr(runtime_module, "stitch_trace", counted)
    return stitched


def test_trace_memo_stitches_each_trace_once(loop_image, monkeypatch):
    """No client, a cache that evicts the loop's traces: each distinct
    (head, block bodies) is stitched once; every later build of it is a
    hit, instantiated over the one memoized body."""
    stitched = _counting_stitcher(monkeypatch)
    bodies = []

    def record_traces(runtime):
        place = runtime._place

        def recorded(cache, fragment, thread=None):
            if fragment.is_trace:
                bodies.append(fragment.body)
            return place(cache, fragment, thread=thread)

        runtime._place = recorded

    runtime = _check(
        loop_image, _trace_churn(), setup=record_traces
    ).runs[0].runtime
    traces = memo_keys(runtime)[1]
    assert len(stitched) == len(set(stitched)) == len(traces)
    assert set(stitched) == set(traces)
    assert runtime.stats.traces_built == len(bodies) > len(traces)  # hits
    assert {id(body) for body in bodies} == {
        id(runtime.memo[key].body) for key in traces
    }


@pytest.mark.parametrize("site, start, period", [
    ("trace", 4, 5), ("emit", 20, 25),
])
def test_trace_memo_hits_pass_the_shield_chokepoints(
    loop_image, site, start, period
):
    """A trace hit is a trace build to drshield too: the ``trace``
    attempt and the ``emit`` check run as on a miss, so injected faults
    fire at the same builds in the memo and never-hit columns (the
    oracle holds their event streams equal)."""
    faulted = []  # (runtime, whether its memo held the trace) per emit fault

    def install_plan(runtime):
        runtime.rguard.plan = RuntimeFaultPlan(
            "runtime_raise:" + site, 0, start=start, period=period
        )
        finalize = runtime._finalize_trace

        def recorded(recording):
            key = (recording.head_tag,) + tuple(
                block.body for block in recording.entries
            )
            held = key in runtime.memo
            try:
                return finalize(recording)
            except InjectedRuntimeFault:
                faulted.append((runtime, held))
                raise

        runtime._finalize_trace = recorded

    verdict = _check(
        loop_image, _trace_churn(shield=True, trace_events=True,
                                 trace_buffer=None),
        columns=memo_columns(), setup=install_plan,
    )
    runtime = verdict["memo"].runtime
    assert runtime.rguard.injected > 0
    assert runtime.stats.traces_built > len(memo_keys(runtime)[1])  # hits
    if site == "emit":
        assert (runtime, True) in faulted  # a fault landed on a hit


def test_trace_memo_bypassed_for_clients(loop_image, monkeypatch):
    """A client's trace hook sees every trace: nothing is memoized."""
    stitched = _counting_stitcher(monkeypatch)
    runtime = _check(
        loop_image, _trace_churn(), client=InstructionCounter
    ).runs[0].runtime
    assert runtime.stats.traces_built > 0
    assert runtime.stats.client_trace_hooks == runtime.stats.traces_built
    assert len(stitched) == runtime.stats.traces_built
    assert runtime.memo == {}


def test_trace_memo_bypassed_under_verification(loop_image):
    """Every trace is verified against its source blocks at emit."""
    verdict = _check(
        loop_image, _trace_churn(verify_fragments=True),
        columns=memo_columns(),
    )
    runtime, forced = (run.runtime for run in verdict.runs)
    assert runtime.stats.traces_built > 0
    assert runtime.memo == {}
    assert runtime.verifier_diagnostics == forced.verifier_diagnostics


# Outer iterations, emits per iteration and the iteration that patches.
_OUTER, _INNER, _PATCH_ITERATION = 16, 10, 10


def _patch_once(b):
    """In iteration ``_PATCH_ITERATION``, rewrite the immediate to 'B'."""
    b.cmp(Reg.ESI, _PATCH_ITERATION)
    b.jnz("skip")
    b.mov(Reg.ECX, b.label_address("patch_end"))
    b.sub(Reg.ECX, 4)
    b.mov(Reg.EDX, 0x1000042)
    b.mov(mem(base=Reg.ECX), Reg.EDX)
    b.label("skip")


def _build_trace_smc_image(patch=_patch_once):
    """Self-modifying code inside a trace: an outer loop runs two inner
    loops, each a trace.  The first calls ``fn_emit`` (inlined into its
    trace), whose ``mov`` immediate emits 'A'; after the first loop,
    ``patch(b)``'s code may rewrite it (by default to 'B', in iteration
    ``_PATCH_ITERATION``).  Under a small cache the second loop evicts
    the first loop's blocks and trace, so the first trace is rebuilt in
    every iteration.  Returns the image and the first loop's head (its
    trace's tag)."""
    b = CodeBuilder(base=0x1000)
    b.label("main")
    b.mov(Reg.ESI, 0)
    b.label("outer")
    b.mov(Reg.EDI, _INNER)
    b.label("emit_loop")
    b.call("fn_emit")
    b.sub(Reg.EDI, 1)
    b.jnz("emit_loop")
    patch(b)
    b.mov(Reg.EDI, _INNER)
    b.label("mix_loop")
    b.add(Reg.EDX, Reg.EDI)
    b.test(Reg.EDX, 1)
    b.jz("even")
    b.add(Reg.EBP, 3)
    b.label("even")
    b.xor(Reg.EBP, Reg.EDX)
    b.sub(Reg.EDI, 1)
    b.jnz("mix_loop")
    b.add(Reg.ESI, 1)
    b.cmp(Reg.ESI, _OUTER)
    b.jnz("outer")
    b.mov(Reg.EAX, 1)
    b.mov(Reg.EBX, 0)
    b.syscall()
    b.label("fn_emit")
    b.mov(Reg.EBX, 0x1000041)
    b.label("patch_end")
    b.mov(Reg.EAX, 2)
    b.syscall()
    b.ret()
    _code, labels = b.assemble()
    return b.image(entry="main"), labels["emit_loop"]


@pytest.mark.parametrize("consistency", [True, False])
def test_smc_rewrites_a_memoized_trace(consistency):
    """The patched block sits inside a trace the memo has already
    served.  The rebuild after the patch decodes the new bytes (a new
    block body), so its trace key differs and the trace is stitched
    afresh: with or without the write watch, the output is native's, in
    both memo columns.  The block's rebuild drops the trace key holding
    its old body, so the memo ends with one entry for the head."""
    image, head = _build_trace_smc_image()
    patched_at = (_PATCH_ITERATION + 1) * _INNER  # output bytes so far
    native = native_result(image)
    assert native.output == b"A" * patched_at + b"B" * (
        (_OUTER - _PATCH_ITERATION - 1) * _INNER
    )
    builds = []  # (runtime, hit, output length) per build of head's trace

    def record_builds(runtime):
        finalize = runtime._finalize_trace

        def recorded(recording):
            before = len(runtime.memo)
            fragment = finalize(recording)
            if recording.head_tag == head:
                builds.append((
                    runtime, len(runtime.memo) == before,
                    len(runtime.system.output),
                ))
            return fragment

        runtime._finalize_trace = recorded

    options = _smc_options(consistency, code_cache_limit=300)
    verdict = _check(
        image, options, columns=memo_columns(), setup=record_builds
    )
    runtime = verdict["memo"].runtime
    assert (runtime.stats.smc_invalidations > 0) == consistency
    hits = [(hit, out) for rt, hit, out in builds if rt is runtime]
    assert any(hit for hit, out in hits if out < patched_at)
    after = [hit for hit, out in hits if out > patched_at]
    assert after and not after[0]  # the first rebuild after it stitches
    assert [key[0] for key in memo_keys(runtime)[1]].count(head) == 1


def _rewrite(rewrites):
    """Patch code that stores 'B' + min(i, rewrites - 1) as the
    immediate in every iteration i: a new one in the first ``rewrites``
    iterations, the same one after.  It is branch-free, so every
    rewrite count runs the same path and rebuilds alike."""

    def patch(b):
        b.mov(Reg.ECX, b.label_address("patch_end"))
        b.sub(Reg.ECX, 4)
        b.mov(Reg.EAX, Reg.ESI)
        b.sub(Reg.EAX, rewrites - 1)
        b.mov(Reg.EBX, Reg.EAX)
        b.sar(Reg.EBX, 31)
        b.and_(Reg.EAX, Reg.EBX)
        b.add(Reg.EAX, 0x1000042 + rewrites - 1)
        b.mov(mem(base=Reg.ECX), Reg.EAX)

    return patch


def test_rewritten_callee_keeps_the_memo_size():
    """Each rewrite gives the callee a new block body (the write watch
    invalidates it, and its rebuild decodes the new bytes), so every
    trace key holding an old body is dead: the rebuild drops them, and
    the memo ends the same size however often the callee was
    rewritten."""
    sizes = []
    for rewrites in (1, 3, 6):
        image, _head = _build_trace_smc_image(_rewrite(rewrites))
        native = native_result(image)
        assert native.output == b"".join(
            bytes([ord("A") + min(i, rewrites)]) * _INNER
            for i in range(_OUTER)
        )
        verdict = _check(
            image, _smc_options(code_cache_limit=300),
            columns=memo_columns(),
        )
        runtime = verdict["memo"].runtime
        assert runtime.stats.traces_built > len(memo_keys(runtime)[1])
        sizes.append(len(runtime.memo))
    assert sizes[0] == sizes[1] == sizes[2], sizes


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
