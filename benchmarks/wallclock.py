#!/usr/bin/env python3
"""Host wall-clock benchmark: tuple vs closure vs chain engines.

Runs the tier-2 workload sweep through every execution engine of each
executor — the interpreter (``engine="closure"`` / ``engine="tuple"``)
and the DynamoRIO runtime (tuple, closure, and the chain compiler) —
timing host seconds while the differential oracle
(:mod:`repro.tools.oracle`) holds the *simulated* results (cycles,
instructions, output, events, final registers) bit-identical across
engines and the output equal to native.  Simulated numbers measure the
machine being modelled; host seconds measure this Python
implementation.  Only the latter may change between engines.

Usage::

    PYTHONPATH=src python benchmarks/wallclock.py              # full sweep
    PYTHONPATH=src python benchmarks/wallclock.py --quick      # CI smoke
    PYTHONPATH=src python benchmarks/wallclock.py --quick \\
        --check BENCH_wallclock.json                           # drift gate

``--check`` compares the simulated cycles/instructions of every sweep
cell against a previously written JSON (host timings are machine-
dependent and deliberately ignored); any drift exits non-zero.  The
checked-in ``BENCH_wallclock.json`` doubles as the golden for CI;
``--commit``/``--date`` stamp its ``meta`` block so the artifact
records which revision produced it.
"""

import argparse
import json
import sys

from repro.core import RuntimeOptions
from repro.tools.oracle import Cell, Column, measure
from repro.workloads import load_benchmark

# (config key, kind).  "native" exercises the interpreter's decode-time
# closures; "bb"/"trace" exercise the fragment step tables under two
# Table-1 rows (indirect linking, full traces).
CONFIGS = (
    ("native", "interp"),
    ("bb", "runtime"),
    ("trace", "runtime"),
)

OPTION_FACTORIES = {
    "bb": RuntimeOptions.with_indirect_links,
    "trace": RuntimeOptions.with_traces,
}

FULL_WORKLOADS = ("crafty", "vpr", "gzip", "mcf", "mgrid")
QUICK_WORKLOADS = ("crafty", "vpr")


def sweep_cell(image, config, kind):
    """The engines of one executor for one workload and config.  The
    chain engine only exists above the runtime's closure tables, so
    interpreter rows compare closure vs tuple only."""
    if kind == "interp":
        return Cell(image, columns=(
            Column("closure", "closure", interp="native"),
            Column("tuple", "tuple", interp="native"),
        ))
    return Cell(image, options=OPTION_FACTORIES[config])


def run_sweep(workloads, scale, repeats):
    cells = []
    failures = []
    for name in workloads:
        image = load_benchmark(name, scale)
        for config, kind in CONFIGS:
            verdict, timings = measure(
                sweep_cell(image, config, kind), repeats
            )
            failures.extend(
                "%s/%s: %s" % (name, config, failure)
                for failure in verdict.failures
            )
            reference = verdict["closure"].result
            closure_s = timings["closure"]
            tuple_s = timings["tuple"]
            chain_s = timings.get("chain")
            cell = {
                "workload": name,
                "config": config,
                "cycles": reference.cycles,
                "instructions": reference.instructions,
                "closure_s": round(closure_s, 4),
                "tuple_s": round(tuple_s, 4),
                "speedup": round(tuple_s / closure_s, 3),
                "chain_s": None if chain_s is None else round(chain_s, 4),
                "chain_speedup": (
                    None if chain_s is None
                    else round(closure_s / chain_s, 3)
                ),
            }
            cells.append(cell)
            chain_col = (
                "  chain %.3fs  %.2fx vs closure"
                % (chain_s, cell["chain_speedup"])
                if chain_s is not None
                else ""
            )
            print(
                "%-8s %-7s %12d cycles  closure %.3fs  tuple %.3fs  %.2fx%s"
                % (
                    name,
                    config,
                    reference.cycles,
                    closure_s,
                    tuple_s,
                    cell["speedup"],
                    chain_col,
                )
            )
    return cells, failures


def geomean(values):
    product = 1.0
    for v in values:
        product *= v
    return product ** (1.0 / len(values))


def summarize(cells):
    per_config = {}
    for config, _kind in CONFIGS:
        speedups = [c["speedup"] for c in cells if c["config"] == config]
        per_config[config] = round(geomean(speedups), 3)
    chain_speedups = [
        c["chain_speedup"] for c in cells if c["chain_speedup"] is not None
    ]
    return {
        "geomean_speedup": round(geomean([c["speedup"] for c in cells]), 3),
        "per_config": per_config,
        # Chain engine vs the closure engine it stacks on, geomean over
        # the runtime rows (the chain compiler's acceptance number).
        "chain_vs_closure": (
            round(geomean(chain_speedups), 3) if chain_speedups else None
        ),
    }


def check_against(cells, golden_path, scale):
    """Gate on simulated-result drift vs a previous run's JSON."""
    with open(golden_path) as f:
        golden = json.load(f)
    if golden.get("scale") != scale:
        print(
            "check: golden scale %r != run scale %r; nothing comparable"
            % (golden.get("scale"), scale),
            file=sys.stderr,
        )
        return ["scale mismatch: golden %r vs run %r"
                % (golden.get("scale"), scale)]
    golden_cells = {
        (c["workload"], c["config"]): c for c in golden["results"]
    }
    drift = []
    for cell in cells:
        key = (cell["workload"], cell["config"])
        want = golden_cells.get(key)
        if want is None:
            continue  # golden may come from a different sweep size
        for field in ("cycles", "instructions"):
            if cell[field] != want[field]:
                drift.append(
                    "%s/%s: %s %d != golden %d"
                    % (key[0], key[1], field, cell[field], want[field])
                )
    return drift


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick",
        action="store_true",
        help="small sweep, 1 repeat (CI smoke mode)",
    )
    parser.add_argument("--scale", default=None, help="workload scale")
    parser.add_argument(
        "--repeats", type=int, default=None, help="timed runs per cell"
    )
    parser.add_argument(
        "--output",
        default="BENCH_wallclock.json",
        help="where to write the JSON report",
    )
    parser.add_argument(
        "--check",
        metavar="GOLDEN",
        help="fail if simulated cycles/instructions drift from GOLDEN",
    )
    parser.add_argument(
        "--commit",
        default=None,
        help="revision hash recorded in the report's meta block",
    )
    parser.add_argument(
        "--date",
        default=None,
        help="ISO date recorded in the report's meta block",
    )
    args = parser.parse_args(argv)

    workloads = QUICK_WORKLOADS if args.quick else FULL_WORKLOADS
    scale = args.scale or ("test" if args.quick else "small")
    repeats = args.repeats or (1 if args.quick else 3)

    cells, failures = run_sweep(workloads, scale, repeats)
    summary = summarize(cells)
    report = {
        "scale": scale,
        "repeats": repeats,
        "quick": args.quick,
        "python": sys.version.split()[0],
        "results": cells,
        "summary": summary,
        "meta": {
            "commit": args.commit,
            "date": args.date,
        },
    }
    chain_txt = (
        "  chain-vs-closure %.2fx" % summary["chain_vs_closure"]
        if summary["chain_vs_closure"] is not None
        else ""
    )
    print(
        "geomean speedup: %.2fx  (%s)%s"
        % (
            summary["geomean_speedup"],
            "  ".join(
                "%s %.2fx" % (k, v) for k, v in summary["per_config"].items()
            ),
            chain_txt,
        )
    )

    for line in failures:
        print("FAIL: " + line, file=sys.stderr)
    if failures:
        return 1

    if args.check:
        drift = check_against(cells, args.check, scale)
        if drift:
            for line in drift:
                print("DRIFT: " + line, file=sys.stderr)
            return 1
        print("simulated results match %s" % args.check)

    with open(args.output, "w") as f:
        json.dump(report, f, indent=2)
        f.write("\n")
    print("wrote %s" % args.output)
    return 0


if __name__ == "__main__":
    sys.exit(main())
