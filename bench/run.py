#!/usr/bin/env python3
"""The repository's benchmark: host time and simulated slowdown of the
runtime on four workloads, with a per-layer split from a traced run.

Usage (from the repository root)::

    python3 bench/run.py --seed 0 --out bench/out/seed0.json   # all workloads
    python3 bench/run.py --seed 0 --trace                     # + per-layer split
    python3 bench/run.py --workload steady --seed 3 --seconds 10 --trace 0
    python3 bench/run.py --smoke --trace                      # quick self-check
    python3 bench/run.py --compare BASE.json HEAD.json

Without ``--workload`` every workload runs in its own child process, one
at a time.  With it, one workload runs in this process and the last line
of standard output is a JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (the end-to-end metrics, or with ``--trace``
the per-layer ones, as listed in ``BENCHMARK.json``).  Any failed job
makes the exit code non-zero.  See ``bench/README.md``.
"""

import argparse
import gc
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
SPEC_PATH = os.path.join(ROOT, "BENCHMARK.json")

WARMUP_PASSES = 1
MIN_PASSES = 5
SETUP_REPS_PER_PASS = 2
# Per-layer metrics come from the last traced pass; the tracing overhead
# compares each job's fastest traced pass with its fastest untraced one.
TRACED_PASSES = 3
# Sum rule for the traced pass: layer self-times account for its wall
# time within this share.
HOST_SUM_TOLERANCE = 0.02
# Per-layer units whose values are timings; every other per-layer
# metric is a deterministic count and must repeat exactly.
TIMING_UNITS = ("s", "us", "kinstr/s", "%")
# On a shared host other tenants can slow every Python loop, by up to
# 1.7x for minutes at a time (2-core VM, CPython 3.11).  A fixed
# pure-Python loop is timed next to every job and set-up repetition, and
# host times are scaled to the speed at which the loop takes REFERENCE_S:
# its fastest time on the host the bounds were set on (see README.md).
REFERENCE_S = 0.0033


class _Cell:
    __slots__ = ("value",)


def _reference_loop():
    steps = [lambda x, k=k: (x * 31 + k) & 0xFFFF for k in range(8)]
    table = {}
    cell = _Cell()
    cell.value = 0
    for i in range(20000):
        cell.value = steps[i & 7](cell.value)
        key = cell.value & 255
        table[key] = table.get(key, 0) + 1
    return cell.value


def reference_seconds():
    """Fastest of three timings of the reference loop."""
    timings = []
    for _ in range(3):
        start = time.perf_counter()
        _reference_loop()
        timings.append(time.perf_counter() - start)
    return min(timings)


def load_spec():
    with open(SPEC_PATH) as f:
        return json.load(f)


def _quartiles(samples):
    if len(samples) < 2:
        return samples[0], samples[0]
    q1, _median, q3 = statistics.quantiles(samples, n=4)
    return q1, q3


def summary(samples, unit, value=None):
    """One metric: its value (by default the samples' median), unit,
    the samples' quartiles and the samples."""
    q1, q3 = _quartiles(samples)
    return {
        "value": statistics.median(samples) if value is None else value,
        "unit": unit,
        "q1": q1,
        "q3": q3,
        "samples": samples,
    }


def geomean(values):
    return math.exp(sum(math.log(v) for v in values) / len(values))


class Ledger:
    """Job outcomes over all passes: a job fails when it raises, its
    output or exit code differs from native, or its simulated
    (cycles, instructions) differ from its first pass."""

    def __init__(self):
        self.attempted = 0
        self.failures = []
        self.first = {}

    def record(self, phase, jobs, results):
        for job, result in zip(jobs, results):
            self.attempted += 1
            error = result.error
            totals = (result.cycles, result.instructions)
            if error is None:
                first = self.first.setdefault(job.label, result)
                if (first.cycles, first.instructions) != totals:
                    error = "simulated (cycles, instructions) %r, first pass %r" % (
                        totals, (first.cycles, first.instructions))
            if error is not None:
                self.failures.append("%s %s: %s" % (phase, job.label, error))

    def slowdown(self, jobs):
        """Geomean of runtime cycles / native cycles over runtime jobs."""
        ratios = [
            self.first[job.label].cycles / self.first[job.label].native_cycles
            for job in jobs
            if job.options is not None and job.label in self.first
        ]
        return geomean(ratios) if ratios else float("nan")


def run_pass(jobs, ledger, phase, reference, tracer=None):
    """One pass over the jobs, back to back; returns each job's host
    seconds.  A reference timing is appended before each job, outside
    every span; with a tracer, each job is one ``other`` root span."""
    gc.collect()
    seconds = []
    results = []
    for job in jobs:
        reference.append(reference_seconds())
        start = time.perf_counter()
        if tracer is None:
            results.append(workloads.run_job(job))
        else:
            with tracer.root():
                results.append(workloads.run_job(job, tracer))
        seconds.append(time.perf_counter() - start)
    ledger.record(phase, jobs, results)
    return seconds


def traced_passes(jobs, ledger, programs, count, reference):
    """``count`` traced passes, each under a fresh Tracer, then one traced
    set-up (for ``minicc``).  Returns the last pass's tracer, each pass's
    per-job seconds, and the sum-rule checks of every pass."""
    passes = []
    rules = {"traced_s": [], "accounted_s": [], "cycle_mismatches": []}
    for index in range(count):
        tracer = layers.Tracer()
        with tracer.installed():
            seconds = run_pass(jobs, ledger, "traced%d" % index, reference, tracer)
            rules["traced_s"].append(sum(seconds))
            rules["accounted_s"].append(tracer.accounted_s())
            if index == count - 1:
                workloads.setup(programs)
        rules["cycle_mismatches"].extend(tracer.cycle_mismatches)
        passes.append(seconds)
    rules["host_ok"] = all(
        abs(accounted - traced) <= HOST_SUM_TOLERANCE * traced
        for accounted, traced in zip(rules["accounted_s"], rules["traced_s"])
    )
    rules["cycles_ok"] = not rules["cycle_mismatches"]
    return tracer, passes, rules


def measure(name, seed, seconds, trace=False, smoke=False):
    """Run one workload; returns its detail record."""
    spec_units = {m["name"]: m["unit"] for m in load_spec()["end_to_end"]}
    programs = workloads.draw(name, seed, smoke)
    workloads.prepare(name, programs)
    jobs = workloads.jobs(name, programs)
    ledger = Ledger()
    setup_samples = []
    reference = []

    def setup_then_pass(phase):
        # Set-up repetitions are spread over the run, so one burst of
        # load from elsewhere on the machine cannot cover all of them.
        for _ in range(SETUP_REPS_PER_PASS):
            gc.collect()
            reference.append(reference_seconds())
            start = time.perf_counter()
            workloads.setup(programs)
            setup_samples.append(time.perf_counter() - start)
        return run_pass(jobs, ledger, phase, reference)

    if not smoke:
        for index in range(WARMUP_PASSES):
            setup_then_pass("warmup%d" % index)
    passes = []
    start = time.perf_counter()
    while not passes or (
        not smoke
        and (len(passes) < MIN_PASSES or time.perf_counter() - start < seconds)
    ):
        passes.append(setup_then_pass("pass%d" % len(passes)))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    run_samples = [sum(job_seconds) for job_seconds in passes]
    # Load from elsewhere on the machine only ever adds time, so each
    # job's fastest pass is its least disturbed one; it is scaled by the
    # fastest reference timing.  Set-up is median against median.
    raw_run_s = sum(min(job_seconds) for job_seconds in zip(*passes))
    run_scale = REFERENCE_S / min(reference)
    setup_scale = REFERENCE_S / statistics.median(reference)

    detail = {
        "workload": name,
        "seed": seed,
        "smoke": smoke,
        "inputs": {p.name: p.input_seed for p in programs},
        "jobs": [job.label for job in jobs],
        "passes": len(passes),
        "job_seconds": {
            job.label: list(job_seconds)
            for job, job_seconds in zip(jobs, zip(*passes))
        },
        "raw": {
            "run_s": raw_run_s,
            "setup_s": statistics.median(setup_samples),
            "reference_s": summary(reference, "s"),
        },
    }
    if trace:
        traced_reference = []
        tracer, traced, detail["sum_rules"] = traced_passes(
            jobs, ledger, programs, 1 if smoke else TRACED_PASSES,
            traced_reference,
        )
        # Scaled like run_s, so a change of machine speed between the
        # untraced and the traced passes does not count as overhead.
        traced_s = sum(min(job_seconds) for job_seconds in zip(*traced))
        detail["layers"] = tracer.metrics(
            traced_s * REFERENCE_S / min(traced_reference),
            raw_run_s * run_scale,
        )
    failed = len(ledger.failures)
    detail.update(
        attempted=ledger.attempted,
        failed=failed,
        failures=ledger.failures,
        end_to_end={
            "setup_s": summary(
                [s * setup_scale for s in setup_samples], spec_units["setup_s"]
            ),
            "run_s": summary(
                [s * run_scale for s in run_samples], spec_units["run_s"],
                raw_run_s * run_scale,
            ),
            "sim_slowdown": summary(
                [ledger.slowdown(jobs)], spec_units["sim_slowdown"]
            ),
            "peak_rss_mb": summary([peak_rss_mb], spec_units["peak_rss_mb"]),
            "fail_ratio": summary([failed / ledger.attempted], "ratio"),
        },
    )
    rules = detail.get("sum_rules")
    detail["correct"] = failed == 0 and (
        rules is None or (rules["host_ok"] and rules["cycles_ok"])
    )
    return detail


# ---------------------------------------------------------------- printing


def print_detail(detail):
    print(
        "%s (seed %d): %d jobs, %d timed passes, %d/%d jobs failed"
        % (detail["workload"], detail["seed"], len(detail["jobs"]),
           detail["passes"], detail["failed"], detail["attempted"])
    )
    for failure in detail["failures"]:
        print("  FAIL %s" % failure)
    for metric, m in detail["end_to_end"].items():
        print(
            "  %-13s %12.6g %-6s (q1 %.6g, q3 %.6g, n=%d)"
            % (metric, m["value"], m["unit"], m["q1"], m["q3"], len(m["samples"]))
        )
    raw = detail["raw"]
    print(
        "  unscaled: run_s %.6g s, setup_s %.6g s; reference loop %.6g s "
        "fastest, %.6g s median (scaled to %g s)"
        % (raw["run_s"], raw["setup_s"], min(raw["reference_s"]["samples"]),
           raw["reference_s"]["value"], REFERENCE_S)
    )
    if "layers" not in detail:
        return
    rules = detail["sum_rules"]
    traced_s = rules["traced_s"][-1]
    print(
        "  last traced pass %.3f s, layers account for %.3f s; host sum "
        "rule %s, simulated cycles %s"
        % (traced_s, rules["accounted_s"][-1],
           "ok" if rules["host_ok"] else "OFF BY MORE THAN 2%",
           "exact" if rules["cycles_ok"] else "MISMATCH %r" % rules["cycle_mismatches"])
    )
    layer_metrics = detail["layers"]
    shares = sorted(
        (
            (value / traced_s, metric[: -len(".self_s")])
            for metric, value in layer_metrics.items()
            if metric.endswith(".self_s") and metric != "minicc.self_s"
        ),
        reverse=True,
    )
    print("  host self-time split: " + ", ".join(
        "%s %.1f%%" % (layer, 100 * share) for share, layer in shares if share >= 0.001
    ))
    for metric, value in layer_metrics.items():
        print("  %-30s %.6g" % (metric, value))


def driver_line(detail, spec, trace):
    """The final JSON line: end-to-end metrics, or per-layer with trace."""
    if trace:
        metrics = {
            m["name"]: {"value": detail["layers"][m["name"]], "unit": m["unit"]}
            for m in spec["per_layer"]
        }
    else:
        metrics = {
            m["name"]: {
                "value": detail["end_to_end"][m["name"]]["value"],
                "unit": m["unit"],
            }
            for m in spec["end_to_end"]
        }
    return json.dumps({
        "correct": detail["correct"],
        "attempted": detail["attempted"],
        "failed": detail["failed"],
        "metrics": metrics,
    })


def write_json(path, data):
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    with open(path, "w") as f:
        json.dump(data, f, indent=1)
        f.write("\n")


# ----------------------------------------------------------------- modes


def run_one(args, spec):
    detail = measure(args.workload, args.seed, args.seconds, args.trace, args.smoke)
    print_detail(detail)
    if args.out:
        write_json(args.out, detail)
    print(driver_line(detail, spec, args.trace), flush=True)
    return 0 if detail["correct"] else 1


def run_all(args, spec):
    """Every workload in its own child process, one at a time."""
    out = args.out or os.path.join(
        BENCH, "out", "seed%d%s%s.json"
        % (args.seed, "-trace" if args.trace else "", "-smoke" if args.smoke else "")
    )
    details = {}
    status = 0
    start = time.perf_counter()
    for workload in spec["workloads"]:
        name = workload["name"]
        part = "%s.%s.part" % (out, name)
        command = [
            sys.executable, os.path.abspath(__file__), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(int(args.trace)), "--out", part,
        ] + (["--smoke"] if args.smoke else [])
        child = subprocess.run(command, stdout=subprocess.PIPE, text=True)
        # The child's last line is its JSON summary; its detail is in `part`.
        sys.stdout.write("".join(child.stdout.splitlines(True)[:-1]))
        if child.returncode != 0:
            status = 1
        if not os.path.exists(part):
            print("%s: child exited %d without a result" % (name, child.returncode))
            status = 1
            continue
        with open(part) as f:
            details[name] = json.load(f)
        os.remove(part)
    wall_s = time.perf_counter() - start
    write_json(out, {
        "seed": args.seed, "seconds": args.seconds, "trace": bool(args.trace),
        "smoke": args.smoke, "wall_s": wall_s, "workloads": details,
    })
    print()
    print("%-11s %-13s %12s %-6s" % ("workload", "metric", "value", "unit"))
    for name, detail in details.items():
        for metric, m in detail["end_to_end"].items():
            print("%-11s %-13s %12.6g %-6s" % (name, metric, m["value"], m["unit"]))
    print("wall time %.1f s; wrote %s" % (wall_s, os.path.relpath(out)))
    return status


# --------------------------------------------------------------- compare


def _runs(path):
    with open(path) as f:
        data = json.load(f)
    if "workloads" in data:
        return data["workloads"]
    return {data["workload"]: data}


def _spread(m):
    middle = statistics.median(m["samples"])
    return (m["q3"] - m["q1"]) / middle if middle else 0.0


def verdict(base, head, bound, better):
    """better / worse / unchanged / unresolved for one metric.

    Better or worse means the head's value moved past the bound.
    Unresolved when either side's quartile spread exceeds the bound,
    unless every head sample beats every base sample."""
    sign = 1.0 if better == "lower" else -1.0
    diff = sign * (head["value"] - base["value"])
    change = diff / abs(base["value"]) if base["value"] else diff
    if max(_spread(base), _spread(head)) > bound:
        if all(sign * (h - b) < 0 for h in head["samples"] for b in base["samples"]):
            return "better"
        return "unresolved"
    if change > bound:
        return "worse"
    if change < -bound:
        return "better"
    return "unchanged"


def compare(base_path, head_path, spec):
    """One row per workload x end-to-end metric; exit 1 on any worse."""
    base_runs = _runs(base_path)
    head_runs = _runs(head_path)
    metrics = [(m["name"], m["bound"], m["better"]) for m in spec["end_to_end"]]
    metrics.append(("fail_ratio", 0.0, "lower"))
    exact = [m["name"] for m in spec["per_layer"] if m["unit"] not in TIMING_UNITS]
    print("%-11s %-13s %-34s %-34s %9s  %s" % (
        "workload", "metric", "base value [q1, q3]", "head value [q1, q3]",
        "head/base", "verdict"))
    status = 0
    for name in base_runs:
        if name not in head_runs:
            print("%-11s missing from %s" % (name, head_path))
            status = 1
            continue
        base = base_runs[name]
        head = head_runs[name]
        for metric, bound, better in metrics:
            b = base["end_to_end"][metric]
            h = head["end_to_end"][metric]
            word = verdict(b, h, bound, better)
            ratio = "%.4f" % (h["value"] / b["value"]) if b["value"] else "-"
            print("%-11s %-13s %-34s %-34s %9s  %s (bound %g)" % (
                name, metric,
                "%.6g [%.6g, %.6g]" % (b["value"], b["q1"], b["q3"]),
                "%.6g [%.6g, %.6g]" % (h["value"], h["q1"], h["q3"]),
                ratio, word, bound))
            if word == "worse":
                status = 1
        if "layers" in base and "layers" in head:
            differ = [
                "%s %r -> %r" % (m, base["layers"][m], head["layers"][m])
                for m in exact
                if base["layers"][m] != head["layers"][m]
            ]
            print("%-11s per-layer counts: %d of %d equal%s" % (
                name, len(exact) - len(differ), len(exact),
                "".join("\n    " + d for d in differ)))
    return status


# ------------------------------------------------------------------ main


def parse_args(argv, spec):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[w["name"] for w in spec["workloads"]],
                        help="run one workload in this process")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"],
                        help="least host seconds of timed passes")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1), help="add a traced pass (per-layer metrics)")
    parser.add_argument("--smoke", action="store_true",
                        help="one program per workload, one pass")
    parser.add_argument("--out", help="write the detail record here")
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "HEAD"))
    return parser.parse_args(argv)


def main(argv=None):
    spec = load_spec()
    args = parse_args(argv, spec)
    if args.compare:
        return compare(args.compare[0], args.compare[1], spec)
    if args.workload:
        return run_one(args, spec)
    return run_all(args, spec)


if not os.path.isdir(os.path.join(SRC, "repro")):
    sys.exit("bench/run.py: no src/repro next to bench/; run from a full checkout")
sys.path.insert(0, SRC)
sys.path.insert(0, BENCH)
import layers  # noqa: E402
import workloads  # noqa: E402

if __name__ == "__main__":
    sys.exit(main())
