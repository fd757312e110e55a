#!/usr/bin/env python3
"""Cache-pressure benchmark: flush vs fifo vs adaptive eviction.

For each workload the harness first probes the unconstrained code-
cache footprint, then replays the workload under capacity pressure —
``code_cache_limit`` pinned to fractions of that footprint — once per
eviction policy:

* ``flush``    whole-unit flush when a unit fills (the pre-adaptive
               default; DELI's fallback strategy),
* ``fifo``     single-fragment FIFO eviction with empty-slot reuse
               (DynamoRIO's own scheme, paper Section 6),
* ``adaptive`` fifo + working-set sizing (the limit is the *initial*
               size; units grow when the regenerated-vs-replaced ratio
               exceeds ``cache_regen_threshold``).

Every cell runs under all three execution engines (tuple, closure,
chain) and is checked by the differential oracle
(:mod:`repro.tools.oracle`): the simulated results — cycles,
instructions, output, exit code, events, final registers — are
bit-identical across engines, and output and exit code equal native
in every cell, so they are identical across *policies* at the same
limit (eviction may never change program behavior, only overhead
cycles); any violation exits non-zero.  Finally the harness gates the
tentpole claim: at every constrained limit, fifo must retranslate
strictly less than flush (retranslations = bbs + traces built).

Usage::

    PYTHONPATH=src python benchmarks/cache_pressure.py            # full
    PYTHONPATH=src python benchmarks/cache_pressure.py --quick    # CI
    PYTHONPATH=src python benchmarks/cache_pressure.py --quick \\
        --check BENCH_cache_pressure.json                         # gate

``--check`` compares every cell's simulated cycles/instructions (and
retranslation counts) against a previously written report; host
timings are machine-dependent and ignored.  The checked-in
``BENCH_cache_pressure.json`` is the quick-mode golden for CI;
``--commit``/``--date`` stamp its ``meta`` block.
"""

import argparse
import json
import sys

from repro.core import DynamoRIO, RuntimeOptions
from repro.loader import Process
from repro.machine.cost import CostModel
from repro.tools.oracle import Cell, measure
from repro.workloads import load_benchmark

# policy key -> (cache_evict_policy, cache_adaptive)
POLICIES = (
    ("flush", ("flush", False)),
    ("fifo", ("fifo", False)),
    ("adaptive", ("fifo", True)),
)

FULL_WORKLOADS = ("crafty", "vpr", "gzip", "mcf", "mgrid")
QUICK_WORKLOADS = ("crafty", "mgrid")

# Constrained limits as fractions of the probed unconstrained
# footprint: heavy pressure and moderate pressure.
FULL_FRACTIONS = (0.4, 0.7)
QUICK_FRACTIONS = (0.5,)


def pressure_cell(image, policy_key, limit):
    """One workload x policy x limit cell, run on every engine."""
    policy, adaptive = dict(POLICIES)[policy_key]

    def options():
        made = RuntimeOptions()
        made.code_cache_limit = limit
        made.cache_evict_policy = policy
        made.cache_adaptive = adaptive
        return made

    return Cell(image, options=options)


def probe_footprint(image):
    """Unconstrained code-cache footprint: peak bytes of the fuller
    unit, doubled (limits split half/half between bb and trace units).
    Deterministic — derived limits are reproducible across runs."""
    runtime = DynamoRIO(
        Process(image), options=RuntimeOptions(), cost_model=CostModel()
    )
    runtime.run()
    peak = 0
    seen = set()
    for thread in runtime.threads:
        for cache in (thread.bb_cache, thread.trace_cache):
            if id(cache) in seen:
                continue
            seen.add(id(cache))
            peak = max(peak, cache.used())
    return 2 * peak


def retranslations(result):
    return result.events["bbs_built"] + result.events["traces_built"]


def run_sweep(workloads, scale, repeats, fractions):
    cells = []
    failures = []
    for name in workloads:
        image = load_benchmark(name, scale)
        footprint = probe_footprint(image)
        limits = [max(200, int(footprint * f)) for f in fractions]
        print("%-8s footprint %6d bytes -> limits %s" % (
            name, footprint, limits))
        for fraction, limit in zip(fractions, limits):
            per_policy = {}
            for policy_key, _ in POLICIES:
                verdict, timings = measure(
                    pressure_cell(image, policy_key, limit), repeats
                )
                failures.extend(
                    "%s limit=%d %s: %s" % (name, limit, policy_key, failure)
                    for failure in verdict.failures
                )
                result = verdict["closure"].result
                ev = result.events
                cell = {
                    "workload": name,
                    "fraction": fraction,
                    "limit": limit,
                    "policy": policy_key,
                    "cycles": result.cycles,
                    "instructions": result.instructions,
                    "retranslations": retranslations(result),
                    "cache_evictions": ev["cache_evictions"],
                    "fragment_evictions": ev["cache_fragment_evictions"],
                    "cache_resizes": ev["cache_resizes"],
                    "tuple_s": round(timings["tuple"], 4),
                    "closure_s": round(timings["closure"], 4),
                    "chain_s": round(timings["chain"], 4),
                }
                cells.append(cell)
                per_policy[policy_key] = cell
                print(
                    "%-8s limit %6d %-8s %12d cycles  retrans %5d  "
                    "evict %5d/%-5d  resize %2d  %.3fs"
                    % (
                        name, limit, policy_key, result.cycles,
                        cell["retranslations"], ev["cache_evictions"],
                        ev["cache_fragment_evictions"], ev["cache_resizes"],
                        timings["closure"],
                    )
                )
            # The tentpole gate: single-fragment FIFO eviction must
            # retranslate strictly less than the whole-unit flush.
            flush_rt = per_policy["flush"]["retranslations"]
            fifo_rt = per_policy["fifo"]["retranslations"]
            if fifo_rt >= flush_rt:
                failures.append(
                    "fifo did not beat flush: %s limit=%d "
                    "retranslations fifo=%d flush=%d"
                    % (name, limit, fifo_rt, flush_rt)
                )
    return cells, failures


def summarize(cells):
    """Aggregate fifo/adaptive wins over flush across the matrix."""
    by_key = {}
    for cell in cells:
        by_key[(cell["workload"], cell["limit"], cell["policy"])] = cell
    ratios = {"fifo": [], "adaptive": []}
    cycle_ratios = {"fifo": [], "adaptive": []}
    for cell in cells:
        if cell["policy"] != "flush":
            continue
        for policy in ("fifo", "adaptive"):
            other = by_key.get((cell["workload"], cell["limit"], policy))
            if other is None:
                continue
            if other["retranslations"]:
                ratios[policy].append(
                    cell["retranslations"] / other["retranslations"]
                )
            cycle_ratios[policy].append(cell["cycles"] / other["cycles"])
    def geomean(values):
        if not values:
            return None
        product = 1.0
        for v in values:
            product *= v
        return round(product ** (1.0 / len(values)), 3)
    return {
        "retranslation_reduction": {
            k: geomean(v) for k, v in ratios.items()
        },
        "cycle_reduction": {
            k: geomean(v) for k, v in cycle_ratios.items()
        },
    }


def check_against(cells, golden_path, scale):
    """Gate on simulated-result drift vs a previous run's JSON."""
    with open(golden_path) as f:
        golden = json.load(f)
    if golden.get("scale") != scale:
        return ["scale mismatch: golden %r vs run %r"
                % (golden.get("scale"), scale)]
    golden_cells = {
        (c["workload"], c["limit"], c["policy"]): c
        for c in golden["results"]
    }
    drift = []
    for cell in cells:
        key = (cell["workload"], cell["limit"], cell["policy"])
        want = golden_cells.get(key)
        if want is None:
            continue
        for field in ("cycles", "instructions", "retranslations"):
            if cell[field] != want[field]:
                drift.append(
                    "%s/limit=%d/%s: %s %d != golden %d"
                    % (key[0], key[1], key[2], field, cell[field],
                       want[field])
                )
    return drift


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick", action="store_true",
        help="small sweep, 1 repeat (CI smoke mode)",
    )
    parser.add_argument("--scale", default=None, help="workload scale")
    parser.add_argument(
        "--repeats", type=int, default=None, help="timed runs per cell"
    )
    parser.add_argument(
        "--output", default="BENCH_cache_pressure.json",
        help="where to write the JSON report",
    )
    parser.add_argument(
        "--check", metavar="GOLDEN",
        help="fail if simulated results drift from GOLDEN",
    )
    parser.add_argument(
        "--commit", default=None,
        help="revision hash recorded in the report's meta block",
    )
    parser.add_argument(
        "--date", default=None,
        help="ISO date recorded in the report's meta block",
    )
    args = parser.parse_args(argv)

    workloads = QUICK_WORKLOADS if args.quick else FULL_WORKLOADS
    fractions = QUICK_FRACTIONS if args.quick else FULL_FRACTIONS
    scale = args.scale or "test"
    repeats = args.repeats or (1 if args.quick else 3)

    cells, failures = run_sweep(workloads, scale, repeats, fractions)
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
    print(
        "retranslation reduction vs flush:  fifo %sx  adaptive %sx"
        % (summary["retranslation_reduction"]["fifo"],
           summary["retranslation_reduction"]["adaptive"])
    )
    print(
        "cycle reduction vs flush:          fifo %sx  adaptive %sx"
        % (summary["cycle_reduction"]["fifo"],
           summary["cycle_reduction"]["adaptive"])
    )

    status = 0
    for line in failures:
        print("FAIL: " + line, file=sys.stderr)
        status = 1

    if args.check:
        drift = check_against(cells, args.check, scale)
        if drift:
            for line in drift:
                print("DRIFT: " + line, file=sys.stderr)
            status = 1
        else:
            print("simulated results match %s" % args.check)

    with open(args.output, "w") as f:
        json.dump(report, f, indent=2)
        f.write("\n")
    print("wrote %s" % args.output)
    return status


if __name__ == "__main__":
    sys.exit(main())
