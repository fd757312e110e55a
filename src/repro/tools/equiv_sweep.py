"""drequiv sweep: every workload x client under full verification.

Usage::

    python -m repro.tools.equiv_sweep                 # whole suite
    python -m repro.tools.equiv_sweep --benchmarks mgrid,mcf --clients all

Each cell runs a benchmark under ``verify_fragments`` (every verifier
rule, drequiv's equivalence rule included) and is checked by the
differential oracle
(:mod:`repro.tools.oracle`): no VerificationError escapes (a clean
client must never trip the checker), output, exit code and final state
match native, and zero error-severity diagnostics were recorded
(warnings — e.g. the custom-trace client's assumed return
continuations — do not fail the sweep).

Exit status is non-zero on any violation.  This is the clean-run half of
the drequiv contract (no false positives); the chaos harness covers the
other half (no false negatives on seeded faults).
"""

import argparse
import sys
import time

from repro.core import RuntimeOptions
from repro.tools.oracle import Cell, sweep
from repro.tools.run import CLIENTS, check_benchmarks, check_names
from repro.workloads import all_benchmarks, load_benchmark

DEFAULT_CLIENTS = ("null", "rlr", "inc2add", "ctrace", "ibdisp", "all",
                   "inscount-inline")


def sweep_cell(image, client_name):
    """One benchmark x client cell under full verification."""

    def options():
        made = RuntimeOptions.with_traces()
        made.verify_fragments = True
        return made

    return Cell(
        image, options=options, client=lambda: CLIENTS[client_name](image)
    )


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--benchmarks", help="comma-separated subset (default: whole suite)"
    )
    parser.add_argument(
        "--clients", default=",".join(DEFAULT_CLIENTS),
        help="comma-separated client list",
    )
    parser.add_argument("--scale", default="test")
    parser.add_argument("--verbose", action="store_true")
    args = parser.parse_args(argv)

    names = check_benchmarks(parser, (
        args.benchmarks.split(",")
        if args.benchmarks
        else [b.name for b in all_benchmarks()]
    ), args.scale)
    clients = check_names(parser, "client", args.clients.split(","), CLIENTS)

    def cells():
        for name in names:
            image = load_benchmark(name, args.scale)
            for client_name in clients:
                yield (
                    "%-10s %-15s" % (name, client_name),
                    sweep_cell(image, client_name),
                )

    start = time.perf_counter()
    runs, failures = sweep(cells(), args.verbose)
    print(
        "equiv sweep: %d runs, %d failures (%d benchmarks, %.1fs)"
        % (runs, failures, len(names), time.perf_counter() - start)
    )
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
