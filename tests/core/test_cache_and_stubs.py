"""Code cache limits/eviction and custom exit stubs."""

import pytest

from repro.api.client import Client
from repro.api.dr import dr_insert_clean_call, dr_set_exit_stub
from repro.core import DynamoRIO, RuntimeOptions
from repro.core.code_cache import CacheFullError, CacheUnit
from repro.core.fragments import Fragment
from repro.ir.create import (
    INSTR_CREATE_add,
    INSTR_CREATE_mov,
    INSTR_CREATE_sub,
    OPND_CREATE_INT32,
    OPND_CREATE_MEM,
)
from repro.ir.instrlist import InstrList
from repro.loader import Process
from repro.machine.errors import MachineFault

from repro.tools.oracle import Cell, check

from tests.core.conftest import run_under

# Runtime heap words the stub code below writes, and an address whose
# 4-byte store runs past the end of the 32 MiB memory.
HEAP = 0x1000000
PAST_MEMORY = 0x2000000 - 2


class TestCacheUnit:
    def _fragment(self, tag, size):
        f = Fragment(tag, Fragment.KIND_BB)
        f.size = size
        return f

    def test_bump_allocation(self):
        unit = CacheUnit("bb", base=0x1000)
        a = unit.allocate(self._fragment(1, 100))
        b = unit.allocate(self._fragment(2, 50))
        assert a == 0x1000 and b == 0x1064
        assert unit.used() == 150

    def test_limit_raises(self):
        unit = CacheUnit("bb", base=0, limit=100)
        unit.allocate(self._fragment(1, 80))
        with pytest.raises(CacheFullError):
            unit.allocate(self._fragment(2, 40))

    def test_flush_resets(self):
        unit = CacheUnit("bb", base=0, limit=100)
        unit.allocate(self._fragment(1, 80))
        dropped = unit.flush()
        assert len(dropped) == 1
        assert unit.used() == 0
        unit.allocate(self._fragment(2, 80))  # fits again


class TestCacheUnitFifo:
    """Free-list allocator mechanics under ``policy="fifo"``."""

    def _fragment(self, tag, size):
        f = Fragment(tag, Fragment.KIND_BB)
        f.size = size
        return f

    def _unit(self, limit=None):
        return CacheUnit("bb", base=0x1000, limit=limit, policy="fifo")

    def test_hole_reuse_first_fit(self):
        unit = self._unit()
        a, b, c = (self._fragment(t, 100) for t in (1, 2, 3))
        unit.allocate(a), unit.allocate(b), unit.allocate(c)
        unit.remove(b)
        assert unit.used() == 200
        d = self._fragment(4, 60)
        assert unit.allocate(d) == b.cache_addr  # front of b's hole
        e = self._fragment(5, 40)
        assert unit.allocate(e) == b.cache_addr + 60  # rest of the hole
        assert unit.used() == 300 and unit.free_bytes == 0

    def test_holes_coalesce(self):
        unit = self._unit()
        frags = [self._fragment(t, 50) for t in (1, 2, 3, 4)]
        for f in frags:
            unit.allocate(f)
        unit.remove(frags[1])
        unit.remove(frags[2])  # adjacent: must merge into one hole
        assert unit.fragmentation() == (100, 1, 100)
        big = self._fragment(5, 100)
        assert unit.allocate(big) == frags[1].cache_addr

    def test_trailing_hole_retracts_cursor(self):
        unit = self._unit(limit=150)
        a = self._fragment(1, 100)
        b = self._fragment(2, 50)
        unit.allocate(a), unit.allocate(b)
        unit.remove(b)
        # The freed tail goes back to bump allocation, so a fragment
        # bigger than the hole still fits within the limit.
        assert unit.free_bytes == 0 and unit.span() == 100
        unit.allocate(self._fragment(3, 50))

    def test_next_eviction_walks_allocation_order(self):
        unit = self._unit()
        a, b, c = (self._fragment(t, 10) for t in (1, 2, 3))
        unit.allocate(a), unit.allocate(b), unit.allocate(c)
        assert unit.next_eviction() is a
        unit.remove(a)
        assert unit.next_eviction() is b  # stale entry skipped
        # A replaced same-tag fragment is stale too: only the live
        # instance is ever offered for eviction.
        b2 = self._fragment(2, 10)
        unit.allocate(b2)
        unit.remove(b)  # no-op: b is no longer the resident for tag 2
        assert unit.next_eviction() is c
        unit.remove(c)
        assert unit.next_eviction() is b2
        unit.remove(b2)
        assert unit.next_eviction() is None

    def test_oversized_into_nonempty_raises(self):
        """The fragment-larger-than-limit path must go through eviction:
        a non-empty unit rejects it instead of silently overcommitting
        via the empty-cache special case."""
        unit = self._unit(limit=100)
        unit.allocate(self._fragment(1, 40))
        with pytest.raises(CacheFullError):
            unit.allocate(self._fragment(2, 150))
        # Only once eviction has drained the unit does it become
        # placeable — as the sole resident, at the unit base.
        victim = unit.next_eviction()
        unit.record_eviction(victim)
        unit.remove(victim)
        big = self._fragment(2, 150)
        assert unit.allocate(big) == unit.base
        assert list(unit.fragments.values()) == [big]

    def test_adaptive_resize_epoch(self):
        unit = CacheUnit("bb", base=0, limit=100, policy="adaptive")
        from repro.core.code_cache import RESIZE_EPOCH

        # An epoch of evictions where every evicted tag regenerates:
        # ratio 1.0 > 0.5, the unit must grow by the factor.
        for i in range(RESIZE_EPOCH):
            f = self._fragment(i, 10)
            unit.allocate(f)
            unit.record_eviction(f)
            unit.remove(f)
            g = self._fragment(i, 10)  # the tag comes back: regenerated
            unit.allocate(g)
            unit.remove(g)
        assert unit.check_resize() == (100, 200)
        assert unit.limit == 200 and unit.resizes == 1
        # A cold epoch (no regeneration) must not grow the unit.
        for i in range(100, 100 + RESIZE_EPOCH):
            f = self._fragment(i, 10)
            unit.allocate(f)
            unit.record_eviction(f)
            unit.remove(f)
        assert unit.check_resize() is None
        assert unit.limit == 200


class TestCacheEviction:
    def test_tiny_cache_still_transparent(self, loop_image, loop_native):
        opts = RuntimeOptions.with_traces()
        opts.code_cache_limit = 700  # absurdly small: constant flushing
        _dr, result = run_under(loop_image, opts)
        assert result.output == loop_native.output
        assert result.events["cache_evictions"] > 0
        assert result.events["fragments_deleted"] > 0

    def test_eviction_traces_and_tiny_cache_stay_transparent(
        self, indirect_image
    ):
        """Constant eviction while trace recordings are active (tiny
        cache, hair-trigger threshold) must stay transparent."""

        def options():
            opts = RuntimeOptions.with_traces()
            opts.code_cache_limit = 700
            opts.trace_threshold = 3  # recordings active most of the run
            return opts

        verdict = check(Cell(indirect_image, options=options))
        assert verdict.ok, verdict
        for run in verdict.runs:
            assert run.result.events["cache_evictions"] > 0
            assert run.result.events["traces_built"] > 0

    def test_eviction_flush_abandons_stale_recording(self, loop_image):
        """An eviction flush must squash an in-progress trace recording
        that references flushed blocks.  Finalizing it would stitch
        deleted fragments — and because the flush already unregistered
        them from the cache-consistency region map, a store into their
        source ranges during the rest of the recording could not squash
        it either, so the trace would capture stale code."""
        from repro.core import DynamoRIO
        from repro.core.trace_builder import TraceRecording
        from repro.loader import Process

        opts = RuntimeOptions.with_traces()
        opts.cache_consistency = True
        runtime = DynamoRIO(Process(loop_image), options=opts)
        thread = runtime.current_thread

        first = runtime._build_bb(loop_image.entry)
        recording = TraceRecording(first.tag)
        recording.append(first)
        thread.trace_in_progress = recording

        # Shrink the cache under its current occupancy so the next
        # build evicts, flushing `first` out from under the recording.
        thread.bb_cache.limit = thread.bb_cache.used()
        next_tag = first.source_spans[0][1]
        runtime._build_bb(next_tag)

        assert first.deleted
        assert runtime.stats.cache_evictions == 1
        assert thread.trace_in_progress is None

    def test_oversized_fragment_drains_unit_through_chokepoint(
        self, loop_image
    ):
        """Placing a fragment bigger than the unit limit into a
        non-empty fifo unit must evict *every* resident through the
        delete chokepoint, then accept the oversized fragment as the
        sole resident at the unit base (regression: the old code
        rejected it forever because `used() + size > limit` held even
        after evictions)."""
        from repro.core import DynamoRIO
        from repro.loader import Process

        opts = RuntimeOptions.with_traces()
        opts.cache_evict_policy = "fifo"
        opts.cache_consistency = True  # populates source_spans
        runtime = DynamoRIO(Process(loop_image), options=opts)
        thread = runtime.current_thread
        cache = thread.bb_cache

        first = runtime._build_bb(loop_image.entry)
        second = runtime._build_bb(first.source_spans[0][1])
        cache.limit = cache.used()  # exactly full

        big = Fragment(0xB16, Fragment.KIND_BB)
        big.size = cache.limit + 1  # larger than the whole unit
        runtime._place(cache, big, thread=thread)

        assert first.deleted and second.deleted
        assert runtime.stats.cache_fragment_evictions == 2
        assert list(cache.fragments.values()) == [big]
        assert big.cache_addr == cache.base
        # The victims went through the real chokepoint: deregistered
        # from the cache-consistency map and no longer resident.
        assert thread.lookup_fragment(first.tag) is None
        assert thread.lookup_fragment(second.tag) is None

    def test_block_larger_than_limit_end_to_end(self):
        """A program whose straight-line block exceeds the per-unit
        limit still runs transparently under fifo: the eviction loop
        drains the unit and the empty-cache rule accepts the block as
        sole resident."""
        from repro.core import DynamoRIO
        from repro.loader import Process
        from repro.minicc import compile_source

        source = (
            "int acc;\n"
            "int main() {\n"
            "    int i;\n"
            "    acc = 0;\n"
            "    for (i = 0; i < 40; i++) { acc = acc + i; }\n"
            + "    acc = acc + 1;\n" * 120
            + "    print(acc);\n"
            "    return 0;\n"
            "}\n"
        )
        image = compile_source(source)

        # Probe the biggest fragment, then pin the per-unit limit just
        # below it so the straight-line block cannot fit a full unit.
        probe = DynamoRIO(Process(image), options=RuntimeOptions())
        probe.run()
        biggest = max(
            f.size
            for f in probe.current_thread.bb_cache.fragments.values()
        )

        def options():
            opts = RuntimeOptions.with_traces()
            opts.code_cache_limit = 2 * (biggest - 1)
            opts.cache_evict_policy = "fifo"
            return opts

        verdict = check(Cell(image, options=options))
        assert verdict.ok, verdict
        for run in verdict.runs:
            assert run.result.events["cache_fragment_evictions"] > 0

    def test_fragment_deleted_hook_fires(self, loop_image):
        deleted = []

        class Watcher(Client):
            def fragment_deleted(self, context, tag):
                deleted.append(tag)

        opts = RuntimeOptions.with_traces()
        opts.code_cache_limit = 700
        _dr, result = run_under(loop_image, opts, client=Watcher())
        assert deleted
        assert len(deleted) == result.events["fragments_deleted"]


class TestCustomExitStubs:
    def test_stub_code_runs_on_unlinked_exit(self, loop_image, loop_native):
        """Client stub code writes a marker to runtime memory whenever an
        exit goes through its stub."""
        marker_addr = 0x1400000 - 0x10000  # inside runtime heap... use heap

        class StubClient(Client):
            def __init__(self):
                super().__init__()
                self.stubs_attached = 0

            def basic_block(self, context, tag, ilist):
                last = ilist.last()
                if last is not None and last.level >= 2 and last.is_cti():
                    stub = InstrList()
                    stub.append(
                        INSTR_CREATE_mov(
                            OPND_CREATE_MEM(disp=0x1000000),  # runtime heap
                            OPND_CREATE_INT32(0xBEEF),
                        )
                    )
                    dr_set_exit_stub(last, stub)
                    self.stubs_attached += 1

        client = StubClient()
        opts = RuntimeOptions.bb_cache_only()  # everything unlinked
        dr, result = run_under(loop_image, opts, client=client)
        assert client.stubs_attached > 0
        assert result.output == loop_native.output
        assert dr.memory.read_u32(0x1000000) == 0xBEEF

    def test_always_stub_runs_even_when_linked(self, loop_image, loop_native):
        hits = []

        class CountingStub(Client):
            def basic_block(self, context, tag, ilist):
                last = ilist.last()
                if last is not None and last.level >= 2 and last.is_cti():
                    stub = InstrList()
                    dr_insert_clean_call(stub, None, lambda ctx: hits.append(1))
                    dr_set_exit_stub(last, stub, always=True)

        opts = RuntimeOptions.with_direct_links()
        _dr, result = run_under(loop_image, opts, client=CountingStub())
        assert result.output == loop_native.output
        # linked exits still pass through the stub
        assert len(hits) > result.events["context_switches"]


class EveryExitStub(Client):
    """Attaches custom stub code to every block's exit CTI: a store into
    the runtime heap, a clean call counting the stub's runs, and a
    second store."""

    def __init__(self, always=False):
        super().__init__()
        self.always = always
        self.hits = 0

    def basic_block(self, context, tag, ilist):
        last = ilist.last()
        if last is not None and last.level >= 2 and last.is_cti():
            stub = InstrList()
            stub.append(INSTR_CREATE_mov(
                OPND_CREATE_MEM(disp=HEAP), OPND_CREATE_INT32(0xBEEF)
            ))
            dr_insert_clean_call(stub, None, self._hit)
            stub.append(INSTR_CREATE_mov(
                OPND_CREATE_MEM(disp=HEAP + 4), OPND_CREATE_INT32(7)
            ))
            dr_set_exit_stub(last, stub, always=self.always)

    def _hit(self, context):
        self.hits += 1


class FaultingStub(Client):
    """Attaches stub code that stores past memory to the exit of the
    fifth block built.  The stub's ``add`` comes first, and its flags
    are dead in the stub's run, since the ``sub`` after the faulting
    store overwrites all six."""

    def __init__(self):
        super().__init__()
        self.blocks = 0

    def basic_block(self, context, tag, ilist):
        self.blocks += 1
        if self.blocks == 5:
            stub = InstrList()
            stub.append(INSTR_CREATE_add(
                OPND_CREATE_MEM(disp=HEAP), OPND_CREATE_INT32(0x7FFFFFFF)
            ))
            stub.append(INSTR_CREATE_mov(
                OPND_CREATE_MEM(disp=PAST_MEMORY), OPND_CREATE_INT32(1)
            ))
            stub.append(INSTR_CREATE_sub(
                OPND_CREATE_MEM(disp=HEAP + 4), OPND_CREATE_INT32(1)
            ))
            dr_set_exit_stub(ilist.last(), stub)


# (cycles, instructions, context switches, stub runs) of the loop
# program with EveryExitStub.  A stub charges its instructions' cycles
# and the clean call's, and no guest instructions.
STUBBED_TOTALS = {
    # Every exit unlinked: each runs its stub, then context-switches.
    "bb_cache_only": (1514530, 25635, 3125, 2358),
    # always=True: every exit runs its stub, linked or not.
    "with_direct_links": (576970, 25635, 780, 2358),
    # Stubs run on unlinked direct exits and on IBL misses.
    "with_traces": (139514, 24888, 77, 10),
}


@pytest.mark.parametrize("preset", sorted(STUBBED_TOTALS))
def test_stubbed_run_totals_are_exact(loop_image, loop_native, preset):
    client = EveryExitStub(always=preset == "with_direct_links")
    dr, result = run_under(
        loop_image, getattr(RuntimeOptions, preset)(), client=client
    )
    assert result.output == loop_native.output
    assert (
        result.cycles, result.instructions,
        result.events["context_switches"], client.hits,
    ) == STUBBED_TOTALS[preset]
    assert dr.memory.read_u32(HEAP) == 0xBEEF
    assert dr.memory.read_u32(HEAP + 4) == 7


def test_stub_clean_calls_count_like_every_clean_call(loop_image):
    """A stub's clean call counts in ``stats.clean_calls`` and emits
    ``clean_call`` with ``role="stub_call"``, so stats replay counts it;
    its cycles are the same ``STUBBED_TOTALS`` pin."""
    client = EveryExitStub()
    options = RuntimeOptions.bb_cache_only()
    options.trace_events = True
    options.trace_buffer = None
    dr, result = run_under(loop_image, options, client=client)
    assert result.cycles == STUBBED_TOTALS["bb_cache_only"][0]
    calls = dr.observer.events(["clean_call"])
    assert dr.stats.clean_calls == len(calls) == client.hits > 0
    assert {event.data["role"] for event in calls} == {"stub_call"}


@pytest.mark.parametrize("preset, cycles", [
    ("bb_cache_only", 6852),
    ("with_traces", 7012),
])
def test_fault_in_stub_code_is_exact(loop_image, preset, cycles):
    """A store past memory in stub code names its exit CTI's application
    PC (the block starts at 0x100d), charges the stub's cycles up to and
    including the faulting store and no guest instruction, and leaves
    the stub's ``add`` flags exact (OF, SF, AF and PF from 1 +
    0x7fffffff)."""
    dr = DynamoRIO(
        Process(loop_image), options=getattr(RuntimeOptions, preset)(),
        client=FaultingStub(),
    )
    dr.memory.write_u32(HEAP, 1)
    with pytest.raises(MachineFault) as fault:
        dr.run()
    assert str(fault.value) == "write past memory at 0x1fffffe (app pc 0x1029)"
    cpu = dr.current_thread.cpu
    assert (dr.counter.cycles, dr.executor.instructions) == (cycles, 35)
    assert cpu.regs == [7, 31, 7, 997, 8388564, 8388564, 0, 0]
    assert cpu.eflags == 0x894
