"""Multithreading: thread-private caches (paper Section 2)."""

import pytest

from repro.api.client import Client
from repro.api.dr import dr_detach
from repro.core import DynamoRIO, RuntimeOptions
from repro.loader import Process
from repro.machine.interp import Interpreter, run_native
from repro.minicc import compile_source
from repro.tools.detach_diff import detach_options
from repro.tools.oracle import Cell, check


THREADED_SRC = """
int done1; int done2;
int part1; int part2;

int worker1() {
    int i;
    part1 = 0;
    for (i = 0; i < 1500; i++) { part1 = part1 + i; }
    done1 = 1;
    return 0;
}

int worker2() {
    int i;
    part2 = 0;
    for (i = 1; i < 1500; i++) { part2 = part2 + i * 2; }
    done2 = 1;
    return 0;
}

int main() {
    spawn(&worker1, 0x790000);
    spawn(&worker2, 0x7a0000);
    while (done1 == 0) { }
    while (done2 == 0) { }
    print(part1);
    print(part2);
    return 0;
}
"""

# Both workers run the *same* function: maximal code sharing, the case
# where thread-private caches duplicate fragments.
SHARED_CODE_SRC = """
int done[2];
int part[2];

int work(int idx) {
    int i; int acc;
    acc = 0;
    for (i = 0; i < 1200; i++) { acc = acc + i * (idx + 1); }
    part[idx] = acc;
    done[idx] = 1;
    return 0;
}

int worker0() { work(0); return 0; }
int worker1() { work(1); return 0; }

int main() {
    spawn(&worker0, 0x790000);
    spawn(&worker1, 0x7a0000);
    while (done[0] == 0) { }
    while (done[1] == 0) { }
    print(part[0] + part[1]);
    return 0;
}
"""


@pytest.fixture(scope="module")
def threaded_image():
    return compile_source(THREADED_SRC)


@pytest.fixture(scope="module")
def shared_code_image():
    return compile_source(SHARED_CODE_SRC)


class TestNativeThreads:
    def test_spawn_and_join(self, threaded_image):
        result = run_native(Process(threaded_image))
        values = [
            int.from_bytes(result.output[i : i + 4], "little")
            for i in range(0, len(result.output), 4)
        ]
        assert values == [sum(range(1500)), sum(i * 2 for i in range(1, 1500))]
        assert result.events["threads_spawned"] == 2
        assert result.events["thread_switches"] > 0

    def test_deterministic_schedule(self, threaded_image):
        a = run_native(Process(threaded_image))
        b = run_native(Process(threaded_image))
        assert a.cycles == b.cycles
        assert a.output == b.output

    def test_quantum_affects_interleaving_not_output(self, threaded_image):
        small = Interpreter(Process(threaded_image), quantum=10).run()
        large = Interpreter(Process(threaded_image), quantum=1000).run()
        assert small.output == large.output


class TestRuntimeThreads:
    def test_transparent(self, threaded_image):
        native = run_native(Process(threaded_image))
        result = DynamoRIO(
            Process(threaded_image), options=RuntimeOptions.with_traces()
        ).run()
        assert result.output == native.output
        assert result.exit_code == native.exit_code
        assert result.events["threads_spawned"] == 2

    def test_thread_hooks_fire(self, threaded_image):
        events = []

        class Watcher(Client):
            def thread_init(self, context):
                events.append(("init", context.id))

            def thread_exit(self, context):
                events.append(("exit", context.id))

        DynamoRIO(
            Process(threaded_image),
            options=RuntimeOptions.with_traces(),
            client=Watcher(),
        ).run()
        inits = [e for e in events if e[0] == "init"]
        exits = [e for e in events if e[0] == "exit"]
        assert len(inits) == 3  # main + 2 workers
        # worker threads exit via the trampoline; main exits the program
        assert len(exits) >= 2

    def test_each_thread_has_own_cache_region(self, threaded_image):
        dr = DynamoRIO(Process(threaded_image), options=RuntimeOptions.with_traces())
        dr.run()
        bases = [t.bb_cache.base for t in dr.threads]
        assert len(set(bases)) == len(bases)

    def test_spawned_thread_cpu_isolated(self, threaded_image):
        dr = DynamoRIO(Process(threaded_image), options=RuntimeOptions.with_traces())
        dr.run()
        cpus = {id(t.cpu) for t in dr.threads}
        assert len(cpus) == len(dr.threads)

    def test_shared_bodies_keep_per_thread_links(self, shared_code_image):
        """Both workers run ``work``, so the retranslation memo builds
        each thread's private copy of its blocks over one body and one
        generated function.  Links stay per thread: every pass must run the
        fragment stored under its tag in the running thread's own
        cache, never a sibling thread's copy."""
        foreign = []

        def watch_passes(runtime):
            observer = runtime.observer
            enter = observer.profile_enter

            def profile_enter(fragment, cycles):
                thread = runtime.current_thread
                cache = (
                    thread.trace_cache if fragment.is_trace else thread.bb_cache
                )
                if cache.fragments.get(fragment.tag) is not fragment:
                    foreign.append((thread.id, hex(fragment.tag)))
                enter(fragment, cycles)

            observer.profile_enter = profile_enter

        verdict = check(Cell(
            shared_code_image,
            options=lambda: RuntimeOptions(trace_events=True, trace_buffer=None),
            setup=watch_passes,
        ))
        assert verdict.ok, verdict
        assert foreign == []
        runtime = verdict["runtime"].runtime
        first, second = (t.bb_cache.fragments for t in runtime.threads[1:])
        shared = [
            (first[tag], second[tag])
            for tag in first.keys() & second.keys()
            if first[tag].body is second[tag].body
        ]
        assert shared, "the workers share no body"
        for one, other in shared:
            assert one.body.entry is other.body.entry
            assert one.exits and all(s.fragment is one for s in one.exits)
            assert all(s.fragment is other for s in other.exits)


class DetachAtFirstBlock(Client):
    """Detaches from the first basic-block hook; counts thread_init."""

    def __init__(self, reattach_after):
        super().__init__()
        self.reattach_after = reattach_after
        self.thread_inits = 0
        self.detached = False

    def thread_init(self, context):
        self.thread_inits += 1

    def basic_block(self, context, tag, ilist):
        if not self.detached:
            self.detached = True
            dr_detach(self, reattach_after=self.reattach_after)


@pytest.mark.parametrize("reattach_after, thread_inits", [(50, 3), (None, 1)])
def test_threads_spawned_while_detached(
    threaded_image, reattach_after, thread_inits
):
    """Both workers spawn while the runtime is detached: they still
    become runtime threads, and the client meets them (``thread_init``)
    at re-attach, or never when the run stays native."""
    verdict = check(Cell(
        threaded_image,
        options=detach_options,
        client=lambda: DetachAtFirstBlock(reattach_after),
    ))
    assert verdict.ok, verdict
    run = verdict["runtime"]
    assert run.runtime.stats.detaches == 1
    assert len(run.runtime.threads) == 3
    assert run.client.thread_inits == thread_inits
