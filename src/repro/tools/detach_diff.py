"""drdetach differential: detach mid-run, finish natively, diff outputs.

Usage::

    python -m repro.tools.detach_diff
    python -m repro.tools.detach_diff --benchmarks gzip --modes detach

Each cell runs a benchmark under ``precise_interrupts`` with a client
that clean-calls every block and detaches at the k-th dynamic call,
mid-fragment, from inside cache execution.  The differential oracle
(:mod:`repro.tools.oracle`) holds the native continuation
byte-identical to a run that was *never* attached (and its final
registers and eflags equal, unless native took a signal) and the event
stream replay-exact; the cell's own checks add:

* exactly one detach; ``detach`` mode stays native to program exit,
  ``reattach`` mode resumes translated execution after a native
  excursion and must re-attach exactly once;
* the ``signal`` workload variant detaches with an alarm pending, so
  the deadline must carry across the transition and deliver natively;
* the ``shield`` cells detach via the drshield escalation ladder
  instead of a client call: every basic-block build faults, so the
  ladder burns its retry and flush rungs (3 faults) on the very first
  block and must fail over to native, ending detached.

Exit status is non-zero if any cell diverges.
"""

import argparse
import sys
import time

from repro.api.client import Client
from repro.api.dr import dr_detach, dr_insert_clean_call
from repro.core import RuntimeOptions
from repro.resilience.faultinject import RuntimeFaultPlan
from repro.tools.chaos import workload_images
from repro.tools.oracle import Cell, sweep
from repro.tools.run import check_benchmarks, check_names
from repro.workloads import load_benchmark

MODES = ("detach", "reattach")
DEFAULT_BENCHMARKS = ("gzip", "mcf")


class DetachClient(Client):
    """Clean-calls every block; the k-th dynamic call detaches."""

    def __init__(self, at, reattach_after=None):
        super().__init__()
        self.at = at
        self.reattach_after = reattach_after
        self.calls = 0

    def _tick(self, context):
        self.calls += 1
        if self.calls == self.at:
            dr_detach(self, reattach_after=self.reattach_after)

    def basic_block(self, context, tag, ilist):
        first = next(iter(ilist), None)
        dr_insert_clean_call(ilist, first, self._tick)


def detach_options(**overrides):
    return RuntimeOptions(
        precise_interrupts=True,
        trace_events=True,
        trace_buffer=None,
        **overrides,
    )


def detached_once(run):
    if run.runtime.stats.detaches != 1:
        yield "detached %d times" % run.runtime.stats.detaches


def reattached_once(run):
    if run.runtime.stats.reattaches != 1:
        yield "re-attached %d times" % run.runtime.stats.reattaches


def ended_detached(run):
    if not run.runtime.detached:
        yield "run ended attached"


def ladder_faulted_thrice(run):
    if run.runtime.stats.shield_faults != 3:
        yield "%d shield faults (expected the ladder's 3)" % (
            run.runtime.stats.shield_faults
        )


def detach_cell(image, mode, at, reattach_after):
    """Detach at the ``at``-th clean call; ``reattach`` mode comes back
    after ``reattach_after`` native instructions."""
    reattach = mode == "reattach"
    return Cell(
        image,
        options=detach_options,
        client=lambda: DetachClient(
            at, reattach_after=reattach_after if reattach else None
        ),
        checks=(
            (detached_once, reattached_once) if reattach
            else (detached_once, ended_detached)
        ),
    )


def shield_cell(image):
    """Shield-triggered detach: no client at all — a runtime fault plan
    makes every basic-block build raise, so one ``RuntimeGuard.build``
    climbs retry → flush → detach and the program finishes natively."""

    def install_plan(runtime):
        runtime.rguard.plan = RuntimeFaultPlan(
            "runtime_raise:bb_build", 0, start=1, period=1
        )

    return Cell(
        image,
        options=lambda: detach_options(shield=True),
        setup=install_plan,
        checks=(ended_detached, detached_once, ladder_faulted_thrice),
    )


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--benchmarks", default=",".join(DEFAULT_BENCHMARKS),
        help="comma-separated benchmark subset",
    )
    parser.add_argument("--scale", default="test")
    parser.add_argument(
        "--modes", default=",".join(MODES), help="detach,reattach"
    )
    parser.add_argument(
        "--at", type=int, default=250,
        help="detach at this dynamic clean-call count",
    )
    parser.add_argument(
        "--reattach-after", type=int, default=5000,
        help="native instructions before re-attach",
    )
    parser.add_argument("--verbose", action="store_true")
    args = parser.parse_args(argv)
    names = check_benchmarks(parser, args.benchmarks.split(","), args.scale)
    modes = check_names(parser, "mode", args.modes.split(","), MODES)

    cells = []
    for name in names:
        cells.append((name, load_benchmark(name, args.scale), args.at,
                      args.reattach_after))
    # Pending-signal variant: the chaos signal workload arms alarms, so
    # detaching early leaves a deadline pending across the transition.
    # Small program — detach at the third call, short native window.
    signal_image = workload_images()["signal"]
    cells.append(("signal", signal_image, 3, 300))

    start = time.perf_counter()
    matrix = [
        ("%-8s %-8s" % (name, mode), detach_cell(image, mode, at, after))
        for name, image, at, after in cells
        for mode in modes
    ]
    # Shield-triggered detach: the failsafe ladder, not a client, pulls
    # the plug — same native-identity contract as every other cell.
    matrix.append(("%-8s %-8s" % ("signal", "shield"), shield_cell(signal_image)))
    runs, failures = sweep(matrix, args.verbose)
    print(
        "detach diff: %d runs, %d failures (%.1fs)"
        % (runs, failures, time.perf_counter() - start)
    )
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
