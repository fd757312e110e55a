"""The benchmark's workloads: programs, runtime configurations, seeded inputs.

A workload is a fixed list of programs, each run under one or more
configurations; one (program, configuration) pair is a *job*.  The
program list is fixed on purpose: programs differ in cost by up to 2x,
so a seed that picked programs would move every end-to-end metric by
more than its regression bound.  ``--seed`` instead generates each
program's input.  Every workload program seeds its own data generator
with one ``seed = N;`` statement in ``main``; the draw replaces ``N``.
The signal kernel of ``subsystems`` takes its loop bounds and alarm
period from the seed as well.
"""

import random
import re
import traceback
from collections import namedtuple

from repro import minicc
from repro.clients.combined import make_all_optimizations
from repro.core import DynamoRIO, RuntimeOptions
from repro.loader import Process
from repro.machine.interp import Interpreter
from repro.workloads import benchmark
from repro.workloads.spec import SCALES

# A job: ``options`` builds the job's RuntimeOptions (``None`` runs the
# native interpreter); ``client`` builds its client (or is ``None``).
Job = namedtuple("Job", ["label", "program", "options", "client"])

# Result of one job: simulated totals over the program's cold runs.
JobResult = namedtuple(
    "JobResult", ["cycles", "instructions", "native_cycles", "error"]
)

_SEED_STATEMENT = re.compile(r"\bseed = \d+;")

KERNEL = """
int done[2];
int partial[2];
int ticks;

int on_tick() {
    ticks++;
    if (ticks < %(ticks)d) { alarm(%(period)d); }
    sigreturn;
    return 0;
}

int worker_a() {
    int i;
    for (i = 0; i < %(iters_a)d; i++) { partial[0] = partial[0] + i; }
    done[0] = 1;
    return 0;
}

int worker_b() {
    int i;
    for (i = 0; i < %(iters_b)d; i++) { partial[1] = partial[1] ^ (i * 3); }
    done[1] = 1;
    return 0;
}

int main() {
    sighandler(&on_tick);
    alarm(%(period)d);
    spawn(&worker_a, 0x790000);
    spawn(&worker_b, 0x7a0000);
    while (done[0] == 0) { }
    while (done[1] == 0) { }
    while (ticks < %(ticks)d) { }
    print(partial[0]);
    print(partial[1]);
    print(ticks);
    return 0;
}
"""

KERNEL_NAME = "sigthreads"


def _subsystem_options():
    return RuntimeOptions(
        shield=True,
        precise_interrupts=True,
        cache_consistency=True,
        guard_clients=True,
        chain_engine=True,
    )


# Why each workload exists is recorded in BENCHMARK.json and README.md.
# configs: (label, options factory or None for native, client factory).
# cache_fraction: when set, every job's ``code_cache_limit`` is that share
# of its program's probed code-cache footprint.
Workload = namedtuple(
    "Workload", ["scale", "programs", "configs", "kernel", "cache_fraction"]
)

WORKLOADS = {
    "steady": Workload(
        scale="small",
        programs=("swim", "wupwise"),
        configs=(("default", RuntimeOptions, None),),
        kernel=False,
        cache_fraction=None,
    ),
    "table1": Workload(
        scale="test",
        programs=("parser",),
        configs=(
            ("native", None, None),
            ("bb_cache_only", RuntimeOptions.bb_cache_only, None),
            ("with_direct_links", RuntimeOptions.with_direct_links, None),
            ("with_indirect_links", RuntimeOptions.with_indirect_links, None),
        ),
        kernel=False,
        cache_fraction=None,
    ),
    "pressure": Workload(
        scale="test",
        programs=("gap", "gcc", "crafty"),
        configs=(("limited", RuntimeOptions, None),),
        kernel=False,
        # Under the default (flush) policy the flush count of most
        # programs jumps between inputs near their working-set size (at
        # 50%, crafty's slowdown ranges over 7.7-9.4 across inputs; vpr
        # and parser stay erratic even at 25%).  At 25% these three
        # programs thrash alike on every input.
        cache_fraction=0.25,
    ),
    "subsystems": Workload(
        scale="small",
        programs=("gap", "twolf"),
        configs=(("subsystems", _subsystem_options, make_all_optimizations),),
        kernel=True,
        cache_fraction=None,
    ),
}


class Program:
    """One program of a workload, with its seeded input.

    ``prepare`` fills in the untimed state: the compiled image, the
    native reference (output, exit code, cycles per run) and, when asked,
    the unconstrained code-cache footprint.
    """

    def __init__(self, name, source, runs, input_seed):
        self.name = name
        self.source = source
        self.runs = runs
        self.input_seed = input_seed
        self.image = None
        self.reference = None
        self.footprint = None

    def prepare(self, probe_footprint=False):
        self.image = minicc.compile_source(self.source)
        self.reference = Interpreter(Process(self.image)).run()
        if probe_footprint:
            self.footprint = _probe_footprint(self.image)


def _probe_footprint(image):
    """Unconstrained code-cache footprint: peak bytes of the fuller
    unit, doubled (the limit is split half/half between the bb and trace
    units).  Same logic as ``benchmarks/cache_pressure.py``."""
    runtime = DynamoRIO(Process(image), options=RuntimeOptions())
    runtime.run()
    peak = 0
    for thread in runtime.threads:
        for cache in (thread.bb_cache, thread.trace_cache):
            peak = max(peak, cache.used())
    return 2 * peak


def _seeded_source(name, scale, input_seed):
    source, found = _SEED_STATEMENT.subn(
        "seed = %d;" % input_seed, benchmark(name).source(SCALES[scale])
    )
    if found != 1:
        raise ValueError("%s: expected one 'seed = N;' statement" % name)
    return source


def _kernel_params(seed):
    rng = random.Random("%d:%s" % (seed, KERNEL_NAME))
    return {
        "iters_a": rng.randrange(19000, 21000),
        "iters_b": rng.randrange(19000, 21000),
        "period": rng.randrange(1900, 2100),
        "ticks": 40,
    }


def draw(workload_name, seed, smoke=False):
    """The seeded programs of one workload (unprepared).

    ``smoke`` keeps only the first program (and the kernel)."""
    workload = WORKLOADS[workload_name]
    names = workload.programs[:1] if smoke else workload.programs
    programs = []
    for name in names:
        input_seed = random.Random("%d:%s" % (seed, name)).randrange(1, 32768)
        programs.append(
            Program(
                name,
                _seeded_source(name, workload.scale, input_seed),
                benchmark(name).runs,
                input_seed,
            )
        )
    if workload.kernel:
        params = _kernel_params(seed)
        programs.append(Program(KERNEL_NAME, KERNEL % params, 1, params))
    return programs


def prepare(workload_name, programs):
    """Untimed prep of drawn programs; probes footprints only for a
    workload whose cache limit depends on them."""
    probe = WORKLOADS[workload_name].cache_fraction is not None
    for program in programs:
        program.prepare(probe_footprint=probe)


def jobs(workload_name, programs):
    """Every (program, configuration) job of a workload, in run order."""
    workload = WORKLOADS[workload_name]
    result = []
    for program in programs:
        for label, options, client in workload.configs:
            if workload.cache_fraction is not None:
                limit = max(200, int(program.footprint * workload.cache_fraction))
                options = _limited(options, limit)
            result.append(
                Job("%s/%s" % (program.name, label), program, options, client)
            )
    return result


def _limited(options, limit):
    def make():
        made = options()
        made.code_cache_limit = limit
        return made

    return make


def setup(programs):
    """The timed set-up: compile every program and load it into a
    Process, bypassing ``load_benchmark``'s image cache."""
    for program in programs:
        Process(minicc.compile_source(program.source))


def run_job(job, tracer=None):
    """Run one job: every cold run of its program, checked against the
    native reference.  Returns a JobResult; ``error`` is ``None`` on
    success, else a one-line reason."""
    program = job.program
    reference = program.reference
    cycles = instructions = 0
    try:
        for _ in range(program.runs):
            process = Process(program.image)
            if job.options is None:
                engine = Interpreter(process)
            else:
                client = job.client() if job.client is not None else None
                engine = DynamoRIO(process, options=job.options(), client=client)
                if tracer is not None and client is not None:
                    tracer.wrap_client(client)
            result = engine.run() if tracer is None else tracer.run(engine)
            if result.output != reference.output:
                return JobResult(cycles, instructions, 0, "output differs from native")
            if result.exit_code != reference.exit_code:
                return JobResult(
                    cycles, instructions, 0,
                    "exit code %r, native %r" % (result.exit_code, reference.exit_code),
                )
            cycles += result.cycles
            instructions += result.instructions
    except Exception as exc:  # a raising job is a failed job, not a crash
        where = traceback.extract_tb(exc.__traceback__)[-1]
        return JobResult(
            cycles, instructions, 0,
            "%s: %s (at %s:%d)" % (type(exc).__name__, exc, where.filename, where.lineno),
        )
    return JobResult(cycles, instructions, reference.cycles * program.runs, None)
