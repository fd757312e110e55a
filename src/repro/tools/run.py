"""Compile and run MiniC programs, natively and under the runtime.

Usage::

    python -m repro.tools.run program.mc
    python -m repro.tools.run program.mc --client all --stats
    python -m repro.tools.run --benchmark mgrid --client rlr
"""

import argparse

from repro.core import DynamoRIO, RuntimeOptions
from repro.loader import Process
from repro.machine.cost import CostModel, Family
from repro.machine.interp import run_native


def _client(name, with_image=False):
    """The factory ``image -> client`` of ``repro.clients.<name>``,
    imported on first use (``with_image``: it takes the image)."""

    def make(image):
        from repro import clients

        factory = getattr(clients, name)
        return factory(image=image) if with_image else factory()

    return make


# Every client the tools can attach: name -> factory taking the image.
CLIENTS = {
    "none": lambda image: None,
    "null": _client("NullClient"),
    "rlr": _client("RedundantLoadRemoval"),
    "inc2add": _client("StrengthReduction"),
    "ibdisp": _client("IndirectBranchDispatch"),
    "ctrace": _client("CustomTraces"),
    "all": _client("make_all_optimizations"),
    "inscount": _client("InstructionCounter"),
    "inscount-inline": _client("InlineInstructionCounter"),
    "shepherd": _client("ProgramShepherding", with_image=True),
}


def check_names(parser, kind, names, known):
    """``names``, each of which must be in ``known``: the first that is
    not is a usage error (``parser.error``, exit status 2)."""
    for name in names:
        if name not in known:
            parser.error("unknown %s %r (choices: %s)" % (
                kind, name, ", ".join(sorted(known)),
            ))
    return names


def check_benchmarks(parser, names, scale):
    """``names``, each a suite benchmark, to run at ``scale`` (a
    ``SCALES`` preset or a number); a bad name is a usage error."""
    from repro.workloads.spec import SCALES, all_benchmarks

    check_names(parser, "benchmark", names, [b.name for b in all_benchmarks()])
    if not str(scale).isdigit():
        check_names(parser, "scale", [scale], SCALES)
    return names


def load_program(parser, source, benchmark=None, scale="test"):
    """The image a tool's command line names: the suite benchmark
    ``benchmark`` at ``scale``, else the MiniC file ``source``.  An
    unknown name, a missing program, or a file that cannot be read or
    does not compile is a usage error (``parser.error``, exit status
    2)."""
    if benchmark:
        from repro.workloads import load_benchmark

        check_benchmarks(parser, [benchmark], scale)
        return load_benchmark(benchmark, scale)
    if not source:
        parser.error("provide a source file or --benchmark")
    try:
        with open(source) as f:
            text = f.read()
    except OSError as exc:
        parser.error("cannot read %s: %s" % (source, exc.strerror))
    from repro.minicc import CompileError, compile_source

    try:
        return compile_source(text)
    except CompileError as exc:
        parser.error("cannot compile %s: %s" % (source, exc))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("source", nargs="?", help="MiniC source file")
    parser.add_argument("--benchmark", help="run a suite benchmark instead")
    parser.add_argument("--scale", default="test")
    parser.add_argument("--client", default="none", choices=sorted(CLIENTS))
    parser.add_argument(
        "--family", default="p4", choices=["p3", "p4"], help="processor model"
    )
    parser.add_argument("--native-only", action="store_true")
    parser.add_argument("--stats", action="store_true", help="dump runtime events")
    parser.add_argument(
        "--profile",
        metavar="FILE",
        help="profile the runtime run with cProfile; write pstats dump "
        "to FILE ('-' prints the top entries instead)",
    )
    args = parser.parse_args(argv)
    image = load_program(parser, args.source, args.benchmark, args.scale)

    family = Family.PENTIUM_IV if args.family == "p4" else Family.PENTIUM_III
    native = run_native(Process(image), cost_model=CostModel(family))
    print(
        "native: %d cycles, %d instructions, exit=%s"
        % (native.cycles, native.instructions, native.exit_code)
    )
    print("output: %s" % native.output.hex(" "))
    if args.native_only:
        return

    client = CLIENTS[args.client](image)
    runtime = DynamoRIO(
        Process(image),
        options=RuntimeOptions.with_traces(),
        client=client,
        cost_model=CostModel(family),
    )
    if args.profile:
        import cProfile
        import pstats

        profiler = cProfile.Profile()
        profiler.enable()
        result = runtime.run()
        profiler.disable()
        if args.profile == "-":
            pstats.Stats(profiler).sort_stats("cumulative").print_stats(25)
        else:
            profiler.dump_stats(args.profile)
            print("profile written to %s" % args.profile)
    else:
        result = runtime.run()
    status = "TRANSPARENT" if result.output == native.output else "DIVERGED"
    print(
        "runtime[%s]: %d cycles (%.3fx native) — %s"
        % (args.client, result.cycles, result.cycles / native.cycles, status)
    )
    if args.stats:
        for key in sorted(result.events):
            if result.events[key]:
                print("  %-24s %d" % (key, result.events[key]))
    log = getattr(runtime, "client_log", None)
    if log:
        print("client log:")
        for line in log:
            print("  " + line)


if __name__ == "__main__":
    main()
