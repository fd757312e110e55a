"""The simulated golden: every configuration the paper's experiments run.

``GOLDEN.json`` (repository root) holds one row per benchmark × scale ×
configuration, written as one sorted, compact line per row:

* all 22 benchmarks @test natively and under Table 1's five rows;
* all 22 @small natively and under Figure 5's six configurations;
* the four ablation sweeps (:data:`ablations.SWEEPS`);
* the eviction-policy matrix: :data:`POLICY_BENCHMARKS` @test with the
  code cache limited to :data:`FRACTIONS` of the probed footprint,
  under flush, fifo and fifo with adaptive sizing.

A row sums over the benchmark's runs, exactly as
:func:`harness.measure` does (it is the one run path): cycles,
instructions, the non-zero ``RunResult.events`` counters, a sha256
digest of every run's output, the exit codes, and a sha256 digest of
every run's final per-thread registers and eflags.  Policy rows also
record their limit.

``python -m repro.experiments.golden`` recomputes every row, prints
each drifted field as ``row · field · golden → now``, and exits 1 on
any drift; ``--write`` regenerates the file instead.  Every run is
held to native on the way: :func:`harness.measure` checks its output
and exit code, and ``tests/experiments/test_golden.py`` holds every
row's final state to its native row.  The paper's claims are tests
over the checked-in file (``tests/experiments/test_claims.py``).
"""

import argparse
import hashlib
import json
import sys
from collections import namedtuple
from pathlib import Path

from repro.core import DynamoRIO
from repro.experiments import ablations, figure5, harness, table1
from repro.loader import Process
from repro.workloads import all_benchmarks, load_benchmark

GOLDEN = Path(__file__).resolve().parents[3] / "GOLDEN.json"

TABLE1_CONFIGS = [harness.NATIVE] + [config for _label, config in table1.ROWS]
FIGURE5_CONFIGS = [harness.NATIVE] + [config for _key, config in figure5.CONFIGS]

# The eviction-policy matrix (paper Section 6).  policy key ->
# (cache_evict_policy, cache_adaptive).
POLICY_BENCHMARKS = ("crafty", "vpr", "gzip", "mcf", "mgrid")
FRACTIONS = (0.4, 0.5, 0.7)
POLICIES = {
    "flush": ("flush", False),
    "fifo": ("fifo", False),
    "adaptive": ("fifo", True),
}

# One golden row: its key, the measurement it comes from, and the code
# cache limit of a policy row.
Row = namedtuple("Row", "key name scale config limit")


def row_key(name, scale, config_key):
    return "%s@%s/%s" % (name, scale, config_key)


def policy_key(policy, fraction):
    return "%s_%s" % (policy, fraction)


def table1_rows(names=None):
    """Native and Table 1's rows @test."""
    for name in names or [b.name for b in all_benchmarks()]:
        for config in TABLE1_CONFIGS:
            yield Row(row_key(name, "test", config.key), name, "test",
                      config, None)


def figure5_rows():
    for bench in all_benchmarks():
        for config in FIGURE5_CONFIGS:
            yield Row(row_key(bench.name, "small", config.key), bench.name,
                      "small", config, None)


def ablation_rows():
    for name, scale, _label, points in ablations.SWEEPS.values():
        for config in points.values():
            yield Row(row_key(name, scale, config.key), name, scale, config,
                      None)


def probe_footprint(name, scale="test"):
    """Unconstrained code-cache footprint: peak bytes of the fuller
    unit, doubled (a limit is split half/half between the bb and trace
    units)."""
    runtime = DynamoRIO(Process(load_benchmark(name, scale)))
    runtime.run()
    peak = 0
    for thread in runtime.threads:
        for cache in (thread.bb_cache, thread.trace_cache):
            peak = max(peak, cache.used())
    return 2 * peak


def policy_rows(footprint=probe_footprint):
    for name in POLICY_BENCHMARKS:
        peak = footprint(name)
        for fraction in FRACTIONS:
            limit = max(200, int(peak * fraction))  # a floor for tiny footprints
            for key, (policy, adaptive) in POLICIES.items():
                options = harness.options_with(
                    code_cache_limit=limit,
                    cache_evict_policy=policy,
                    cache_adaptive=adaptive,
                )
                config = harness.Config(policy_key(key, fraction), options)
                yield Row(row_key(name, "test", config.key), name, "test",
                          config, limit)


def rows(footprint=probe_footprint):
    """Every row of the golden, in experiment order; ``footprint(name)``
    sizes the policy matrix's limits."""
    yield from table1_rows()
    yield from figure5_rows()
    yield from ablation_rows()
    yield from policy_rows(footprint)


def _digest(value):
    return hashlib.sha256(repr(value).encode()).hexdigest()


def fingerprint(measurement, limit=None):
    """The golden row of one :func:`harness.summarize` measurement."""
    row = {
        "cycles": measurement["cycles"],
        "instructions": measurement["instructions"],
        "events": {
            key: value for key, value in measurement["events"].items() if value
        },
        "output": _digest(measurement["outputs"]),
        "exit_codes": measurement["exit_codes"],
        "final_state": _digest(measurement["final_states"]),
    }
    if limit is not None:
        row["limit"] = limit
    return row


def compute(row):
    """The golden row of ``row``, run through :func:`harness.measure`."""
    measurement = harness.measure(row.name, row.scale, row.config)
    return fingerprint(measurement, row.limit)


def _field_diff(want, got):
    """(field, golden, now) for every field of one row that differs;
    events compare counter by counter."""
    for field in sorted(set(want) | set(got)):
        a, b = want.get(field), got.get(field)
        if field == "events":
            a, b = a or {}, b or {}
            for event in sorted(set(a) | set(b)):
                if a.get(event, 0) != b.get(event, 0):
                    yield "events." + event, a.get(event, 0), b.get(event, 0)
        elif a != b:
            yield field, a, b


def diff(golden, now):
    """(row, field, golden, now) for every drifted field of the rows in
    ``now``; a row the golden lacks drifts as a whole."""
    drift = []
    for key in sorted(now):
        if key not in golden:
            drift.append((key, "row", None, "new"))
            continue
        drift.extend((key,) + item for item in _field_diff(golden[key], now[key]))
    return drift


def load(path=GOLDEN):
    with open(path) as f:
        return json.load(f)


def write(table, path=GOLDEN):
    lines = [
        "%s: %s" % (json.dumps(key), json.dumps(
            row, sort_keys=True, separators=(",", ":")
        ))
        for key, row in sorted(table.items())
    ]
    Path(path).write_text("{\n" + ",\n".join(lines) + "\n}\n")


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="Recompute the simulated golden and diff it against "
        "GOLDEN.json (exit 1 on drift)."
    )
    parser.add_argument(
        "--write", action="store_true",
        help="regenerate GOLDEN.json instead of checking it",
    )
    args = parser.parse_args(argv)
    now = {row.key: compute(row) for row in rows()}
    if args.write:
        write(now)
        print("wrote %d rows to %s" % (len(now), GOLDEN))
        return 0
    golden = load()
    drift = diff(golden, now)
    drift.extend(
        (key, "row", "present", None) for key in sorted(set(golden) - set(now))
    )
    for key, field, want, got in drift:
        print("%s · %s · %s → %s" % (key, field, want, got))
    print("%d rows, %d drifted fields" % (len(now), len(drift)))
    return 1 if drift else 0


if __name__ == "__main__":
    sys.exit(main())
