"""drshield: runtime self-protection and the failsafe escalation ladder.

The contract under ``options.shield``:

* errant application stores into runtime-owned memory (code cache,
  exit stubs, IBL tables, runtime scratch) are trapped, attributed to
  a faulting application PC, and recovered by invalidating only the
  clobbered unit — output stays byte-identical to native;
* legitimate SMC into *application* code is not the shield's business:
  it keeps flowing through the cache-consistency path;
* internal faults at the runtime's chokepoints climb the ladder
  (retry → discard → flush → disable the faulting subsystem → detach
  to native) and never escape as a traceback;
* the emit site is the runtime's own emits only: a client-API
  ``dr_replace_fragment``, from a clean call or a bb hook, is never an
  injection site;
* the forward-progress watchdog breaks translate/flush livelock;
* ladder events replay exactly onto the live stats;
* with the shield off, runs are bit-identical to pre-shield behavior.
"""

import tracemalloc

import pytest

from repro.api.client import Client
from repro.api.dr import dr_decode_fragment, dr_replace_fragment
from repro.core import DynamoRIO, RuntimeOptions
from repro.loader import Process
from repro.machine import memory
from repro.machine.memory import WATCH_SHIFT, MachineFault, Memory
from repro.resilience import RuntimeGuard, Shield
from repro.resilience.faultinject import RUNTIME_FAULT_KINDS, RuntimeFaultPlan
from repro.resilience.shield import WATCHDOG_LIMIT
from repro.tools.chaos import build_smc_image, runtime_options
from repro.tools.oracle import Cell, Column, check

from tests.conftest import ChurningClient


def _shield_options(**overrides):
    """The chaos ``--runtime`` matrix's options (shield, unbounded
    tracing, precise interrupts, early traces) plus ``overrides``."""

    def options():
        made = runtime_options(None)
        for key, value in overrides.items():
            setattr(made, key, value)
        return made

    return options


def _check_plan(image, kind=None, seed=0, start=None, period=None,
                client=lambda: None, **overrides):
    """Check a shielded cell, with a seeded runtime fault plan installed
    when ``kind`` is given, through the differential oracle (native
    output and final state, replay-exact stats)."""

    def install_plan(runtime):
        runtime.rguard.plan = RuntimeFaultPlan(
            kind, seed, start=start, period=period
        )

    verdict = check(Cell(
        image, options=_shield_options(**overrides), client=client,
        setup=install_plan if kind is not None else None,
    ))
    assert verdict.ok, verdict
    return verdict


def _run_with_plan(image, kind, seed=0, **plan):
    run = _check_plan(image, kind, seed, **plan).runs[0]
    return run.runtime, run.result


# ------------------------------------------------------------- errant writes


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_errant_write_fuzz_recovers_bit_identical(loop_image, seed):
    """Seeded errant stores into cache/stub/IBL/scratch: every one is
    trapped, attributed, recovered — and the program's output is still
    byte-identical to native (and the stream replay-exact)."""
    runtime, _ = _run_with_plan(loop_image, "errant_write", seed=seed)
    assert runtime.rguard.injected >= 1
    assert runtime.stats.shield_faults >= 1
    faults = [
        ev for ev in runtime.observer.events() if ev.kind == "shield_fault"
    ]
    for ev in faults:
        assert ev.data["kind"] == "errant_write"
        assert ev.data["region"] in ("code_cache", "runtime_heap")
        assert ev.data["owner"] in (
            "fragment", "stub", "unit", "cache", "ibl", "scratch"
        )
        # Attribution: the faulting *application* PC, not a cache address.
        assert isinstance(ev.data["pc"], int)


def test_errant_write_ladder_identical_across_engines(loop_image):
    # The oracle holds the run, ladder included, to native and its
    # event stream replay-exact.
    verdict = _check_plan(loop_image, "errant_write", seed=1)
    # The plan actually fired.
    assert verdict.runs[0].runtime.observer.counts.get("shield_fault")


def test_errant_write_invalidates_only_the_clobbered_unit(
    loop_image, monkeypatch
):
    """Surgical recovery: a store into one cache unit flushes that unit
    and leaves everything else untouched."""
    flushed = []
    orig = DynamoRIO._flush_cache

    def spy(self, cache, thread=None):
        flushed.append(cache.name)
        return orig(self, cache, thread=thread)

    monkeypatch.setattr(DynamoRIO, "_flush_cache", spy)
    runtime, result = _run_with_plan(loop_image, "errant_write", seed=0)
    hits = [
        ev.data for ev in runtime.observer.events()
        if ev.kind == "shield_fault" and ev.data["owner"] in
        ("fragment", "stub", "unit")
    ]
    assert hits, "no store landed in a cache unit for this seed"
    # Recovery flushed exactly the clobbered units — no detach, no
    # whole-cache teardown, and IBL/scratch hits flushed nothing.
    assert set(flushed) == {h["unit"] for h in hits}
    assert not runtime.detached


def test_smc_still_flows_through_cache_consistency():
    """A legitimate store into *application* code is SMC, not an errant
    write: the consistency path invalidates, the shield stays silent."""
    verdict = _check_plan(build_smc_image(), cache_consistency=True)
    runtime = verdict.runs[0].runtime
    assert runtime.stats.smc_invalidations >= 1
    assert runtime.stats.shield_faults == 0
    assert runtime.shield.errant_faults == 0


# ------------------------------------------------------ escalation ladder


def test_persistent_build_fault_climbs_to_detach(loop_image):
    """Every bb build raises: retry, flush+retry, then the ladder's
    last rung — a full detach — and the program finishes natively."""
    runtime, _ = _run_with_plan(
        loop_image, "runtime_raise:bb_build", start=1, period=1
    )
    assert runtime.detached
    assert runtime.stats.detaches == 1
    assert runtime.stats.shield_faults == 3
    sites = [entry["site"] for entry in runtime.rguard.fault_log]
    assert sites == ["bb_build"] * 3


def test_transient_build_fault_recovers_by_retry(loop_image):
    """One isolated build fault: the first rung (retry) absorbs it and
    the run never detaches or disables anything."""
    runtime, _ = _run_with_plan(
        loop_image, "runtime_raise:bb_build", start=2, period=10**9
    )
    assert not runtime.detached
    assert runtime.stats.shield_faults == 1
    assert runtime.stats.subsystems_disabled == 0


def test_link_faults_disable_direct_linking(loop_image):
    runtime, _ = _run_with_plan(
        loop_image, "runtime_raise:link", start=1, period=1
    )
    assert "direct_linking" in runtime.rguard.disabled
    assert not runtime.options.link_direct
    assert runtime.stats.subsystems_disabled == 1
    disabled = [
        ev.data for ev in runtime.observer.events()
        if ev.kind == "subsystem_disabled"
    ]
    assert disabled == [
        {"subsystem": "direct_linking", "site": "link", "faults": 2}
    ]


def test_trace_faults_disable_traces(loop_image):
    runtime, _ = _run_with_plan(
        loop_image, "runtime_raise:trace", start=1, period=1
    )
    if "traces" in runtime.rguard.disabled:
        assert not runtime.options.traces
        # Disabled mid-run: no trace may have been finalized after that.
        assert runtime.stats.subsystems_disabled >= 1
    # Either way every fault was contained.
    assert runtime.stats.shield_faults == len(runtime.rguard.fault_log)


def test_evict_faults_disable_fifo_eviction(loop_image):
    runtime, _ = _run_with_plan(
        loop_image, "runtime_raise:evict", start=1, period=1,
        code_cache_limit=256, cache_evict_policy="fifo",
    )
    assert "fifo_eviction" in runtime.rguard.disabled
    assert runtime.options.cache_evict_policy == "flush"


@pytest.mark.parametrize("kind", RUNTIME_FAULT_KINDS)
def test_every_fault_kind_contained_on_every_engine(indirect_image, kind):
    """No seeded runtime fault escapes the ladder or perturbs the
    application (the oracle: native output and final state,
    replay-exact stats)."""
    verdict = _check_plan(
        indirect_image, kind, seed=0, start=1,
        code_cache_limit=(
            256 if kind in
            ("runtime_raise:evict", "runtime_raise:unlink") else None
        ),
        cache_evict_policy=(
            "fifo" if kind == "runtime_raise:evict" else "flush"
        ),
    )
    for run in verdict.runs:
        assert run.runtime.rguard.injected >= 1, (kind, run.column.name)


# --------------------------------------------------- emit-injection scope


@pytest.mark.parametrize("start", [1, 2, 3, 5, 8, 12, 13])
def test_clean_call_replaces_are_not_emit_sites(loop_image, start):
    """An emit fault lands in a runtime build, never in the
    ``dr_replace_fragment`` a clean call makes: the churning client
    replaces every fragment from inside the cache, one planted emit
    fault is contained by the ladder, and nothing escapes."""
    runtime, _ = _run_with_plan(
        loop_image, "runtime_raise:emit", start=start, period=10**9,
        client=ChurningClient,
    )
    assert runtime.rguard.injected == 1
    assert [entry["site"] for entry in runtime.rguard.fault_log] == ["emit"]


class _HookReplacer(Client):
    """Replaces the previously built block from inside each bb hook: a
    client-API emit nested in one of the runtime's own builds."""

    def __init__(self):
        super().__init__()
        self.previous = None
        self.replacements = 0

    def basic_block(self, context, tag, ilist):
        previous, self.previous = self.previous, tag
        if previous is None:
            return
        il = dr_decode_fragment(context, previous)
        if il is not None and dr_replace_fragment(context, previous, il):
            self.replacements += 1


def test_hook_nested_replaces_are_not_emit_sites(loop_image):
    """The emit site is checked once per runtime build (bbs and traces);
    a replacement a bb hook makes is client-API work, so a plan aimed
    one past the runtime's own builds never fires."""
    clean = _check_plan(loop_image, client=_HookReplacer).runs[0]
    assert clean.client.replacements > 0
    stats = clean.runtime.stats
    builds = stats.bbs_built + stats.traces_built
    runtime, _ = _run_with_plan(
        loop_image, "runtime_raise:emit", start=builds + 1, period=10**9,
        client=_HookReplacer,
    )
    assert runtime.rguard.injected == 0


# ------------------------------------------------------------- watchdog


def test_livelock_trips_watchdog_then_detaches(loop_image):
    runtime, _ = _run_with_plan(loop_image, "livelock", start=1)
    assert runtime.stats.watchdog_trips == 2
    assert runtime.detached
    trips = [
        ev.data for ev in runtime.observer.events()
        if ev.kind == "watchdog_trip"
    ]
    assert [t["trip"] for t in trips] == [1, 2]
    assert all(t["builds"] > WATCHDOG_LIMIT for t in trips)


def test_watchdog_quiet_on_clean_run(loop_image):
    runtime = _check_plan(loop_image).runs[0].runtime
    assert runtime.stats.watchdog_trips == 0
    # Tags built but not yet re-executed may hold a count of 1; none
    # may ever approach the trip threshold on a clean run.
    assert all(
        count <= 1
        for count in runtime.shield._builds_since_progress.values()
    )


# ------------------------------------------------------------ transparency


def test_shield_off_and_on_bit_identical_when_clean(loop_image):
    """A clean program can't tell the shield exists: cycles,
    instructions, output, and the full event stream are identical with
    it on or off."""
    verdict = check(Cell(loop_image, options=_shield_options(), columns=(
        Column("off", {"shield": False}),
        Column("on", {"shield": True}),
    )))
    assert verdict.ok, verdict
    rt_off, rt_on = (run.runtime for run in verdict.runs)
    assert rt_off.shield is None and rt_off.rguard is None
    assert isinstance(rt_on.shield, Shield)
    assert isinstance(rt_on.rguard, RuntimeGuard)
    assert rt_on.stats.shield_faults == 0


def test_watched_lines_are_bytes_not_objects(loop_image):
    """The shield watches every line of the code cache and of its
    reserve (132,096 lines).  Each is one byte of the memory's line
    table, an ``mmap`` outside the Python heap: constructing the runtime
    allocates almost nothing in ``machine/memory.py``, where a set of
    the line numbers would take 8 MiB."""
    tracemalloc.start()
    try:
        runtime = DynamoRIO(Process(loop_image), options=RuntimeOptions(shield=True))
        snapshot = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    in_memory = snapshot.filter_traces([tracemalloc.Filter(True, memory.__file__)])
    assert sum(stat.size for stat in in_memory.statistics("filename")) < 1 << 20
    lines = runtime.memory._watch_lines
    shield = runtime.shield
    cache = runtime.memory.region("code_cache")
    for start, end in ((cache.start, cache.end),
                       (shield.reserve_base, shield.reserve_end)):
        first, stop = start >> WATCH_SHIFT, ((end - 1) >> WATCH_SHIFT) + 1
        assert lines.find(b"\x00", first, stop) == -1
    # dr_global_alloc storage, just below the reserve, stays unwatched.
    assert lines[(shield.reserve_base >> WATCH_SHIFT) - 1] == 0


# -------------------------------------------------------- fault messages


def test_memory_faults_name_region_and_app_pc():
    mem = Memory(size=0x1000)
    mem.add_region("code", 0x100, 0x100, writable=False)
    mem.set_protection(True)
    mem.set_fault_context(lambda: 0x2040)
    with pytest.raises(MachineFault) as exc:
        mem.write_u32(0x110, 1)
    message = str(exc.value)
    assert "read-only region code" in message
    assert "app pc 0x2040" in message
    with pytest.raises(MachineFault) as exc:
        mem.read_u32(0xFFFF_FFF0)
    assert "app pc 0x2040" in str(exc.value)


def test_memory_faults_omit_context_when_unset():
    mem = Memory(size=0x1000)
    with pytest.raises(MachineFault) as exc:
        mem.read_u32(0x2000)
    assert "app pc" not in str(exc.value)
