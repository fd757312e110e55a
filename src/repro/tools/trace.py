"""Run a program with drtrace enabled and inspect the event stream.

Usage::

    python -m repro.tools.trace program.mc
    python -m repro.tools.trace program.mc --top 20
    python -m repro.tools.trace program.mc --events
    python -m repro.tools.trace program.mc --events --filter ibl_hit,ibl_miss
    python -m repro.tools.trace --benchmark mgrid --client rlr --jsonl out.jsonl

Prints the end-of-run drtrace report (event counts, hot-fragment
table, cycle-attribution coverage); ``--events`` additionally dumps the
recorded events one per line, ``--filter`` narrows them to a
comma-separated list of kinds, and ``--jsonl`` exports them as JSON
Lines for offline analysis.
"""

import argparse

from repro.core import DynamoRIO, RuntimeOptions
from repro.loader import Process
from repro.machine.cost import CostModel, Family
from repro.observe import EVENT_KINDS, JsonlSink, format_event, format_report
from repro.tools.run import CLIENTS, load_program


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("source", nargs="?", help="MiniC source file")
    parser.add_argument("--benchmark", help="run a suite benchmark instead")
    parser.add_argument("--scale", default="test")
    parser.add_argument("--client", default="none", choices=sorted(CLIENTS))
    parser.add_argument(
        "--family", default="p4", choices=["p3", "p4"], help="processor model"
    )
    parser.add_argument(
        "--top", type=int, default=10,
        help="hot-fragment table rows in the report (default 10)",
    )
    parser.add_argument(
        "--events", action="store_true",
        help="dump the recorded events, one per line",
    )
    parser.add_argument(
        "--filter", metavar="KINDS",
        help="comma-separated event kinds to keep (with --events/--jsonl)",
    )
    parser.add_argument(
        "--jsonl", metavar="FILE", help="export recorded events as JSON Lines"
    )
    parser.add_argument(
        "--buffer", type=int, default=65536,
        help="event ring capacity (0 = unbounded; default 65536)",
    )
    args = parser.parse_args(argv)
    image = load_program(parser, args.source, args.benchmark, args.scale)

    kinds = None
    if args.filter:
        kinds = [k.strip() for k in args.filter.split(",") if k.strip()]
        unknown = [k for k in kinds if k not in EVENT_KINDS]
        if unknown:
            parser.error(
                "unknown event kind(s): %s (known: %s)"
                % (", ".join(unknown), ", ".join(EVENT_KINDS))
            )

    client = CLIENTS[args.client](image)
    family = Family.PENTIUM_IV if args.family == "p4" else Family.PENTIUM_III
    options = RuntimeOptions.with_traces()
    options.trace_events = True
    options.trace_buffer = None if args.buffer == 0 else args.buffer
    runtime = DynamoRIO(
        Process(image),
        options=options,
        client=client,
        cost_model=CostModel(family),
    )
    # Stream the export while the run happens: events are on disk even
    # if the run raises (the sink flushes on the way out), and the
    # export is not limited by the ring capacity.
    if args.jsonl:
        try:
            sink = JsonlSink(args.jsonl, kinds=kinds)
        except OSError as exc:
            parser.error("cannot write %s: %s" % (args.jsonl, exc.strerror))
        with sink:
            runtime.observer.tracers.append(sink)
            result = runtime.run()
        print("wrote %d events to %s" % (sink.written, args.jsonl))
    else:
        result = runtime.run()
    observer = runtime.observer

    print(
        "run: %d cycles, %d instructions, exit=%s"
        % (result.cycles, result.instructions, result.exit_code)
    )
    print(format_report(observer, top=args.top, total_cycles=result.cycles))

    if args.events:
        selected = observer.events(kinds)
        print()
        print("events (%d):" % len(selected))
        for event in selected:
            print(format_event(event))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
