#!/usr/bin/env python3
"""Simulated-cost gate for the verification options.

``verify_fragments`` and ``verify_equivalence`` are debug modes that
must never charge the modelled machine: through the differential oracle
(:mod:`repro.tools.oracle`), a run with both options off and a run with
both on must be simulated-identical (cycles, instructions, output, exit
code, events, final state).  The comparison is exact; any drift exits 1.

Host wall-clock is not gated here: the repository's benchmark
(``bench/``) measures host time.  ``--report`` prints each column's
host seconds for one run, for information only.

Usage::

    PYTHONPATH=src python benchmarks/verify_overhead.py          # gate
    PYTHONPATH=src python benchmarks/verify_overhead.py --report # + timings
"""

import argparse
import sys

from repro.tools.oracle import Cell, Column, check
from repro.workloads import load_benchmark

WORKLOADS = ("crafty", "mgrid")


def _verify(on):
    return {"verify_fragments": on, "verify_equivalence": on}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", default="test")
    parser.add_argument(
        "--report", action="store_true", help="print per-workload timings"
    )
    args = parser.parse_args(argv)

    failures = 0
    for name in WORKLOADS:
        image = load_benchmark(name, args.scale)
        verdict = check(Cell(image, columns=(
            Column("off", options=_verify(False)),
            Column("on", options=_verify(True)),
        )))
        for failure in verdict.failures:
            failures += 1
            print("FAIL %-8s simulated drift: %s" % (name, failure))
        if args.report:
            print("%-8s off=%.3fs on=%.3fs (one run each, not gated)" % (
                name, verdict["off"].seconds, verdict["on"].seconds,
            ))

    if failures:
        print("verify-overhead: %d failure(s)" % failures)
        return 1
    print(
        "verify-overhead: simulated cycles identical with verification "
        "on/off across %d workload(s)" % len(WORKLOADS)
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
