"""Table 1: performance of each mechanism added to the interpreter.

Paper values (normalized execution time, smaller is better)::

    System Type               crafty    vpr
    Emulation                 ~300.0    ~300.0
    + Basic block cache         26.1     26.0
    + Link direct branches       5.1      3.0
    + Link indirect branches     2.0      1.2
    + Traces                     1.7      1.1

The reproduction must match the *ordering* and rough factors: emulation
two orders of magnitude off, caching cutting an order of magnitude,
each linking step a large constant factor, traces a final improvement.
"""

from repro.core import RuntimeOptions
from repro.experiments.harness import Config, normalized_time

BENCHMARKS = ("crafty", "vpr")

ROWS = [
    ("Emulation", Config("emulation", interp="emulation")),
    ("+ Basic block cache", Config("bb_cache", RuntimeOptions.bb_cache_only)),
    ("+ Link direct branches", Config("link_direct", RuntimeOptions.with_direct_links)),
    ("+ Link indirect branches", Config("link_indirect", RuntimeOptions.with_indirect_links)),
    ("+ Traces", Config("traces", RuntimeOptions.with_traces)),
]

PAPER = {
    "Emulation": {"crafty": 300.0, "vpr": 300.0},
    "+ Basic block cache": {"crafty": 26.1, "vpr": 26.0},
    "+ Link direct branches": {"crafty": 5.1, "vpr": 3.0},
    "+ Link indirect branches": {"crafty": 2.0, "vpr": 1.2},
    "+ Traces": {"crafty": 1.7, "vpr": 1.1},
}


def run(scale="test"):
    """Returns {row_label: {benchmark: normalized_time}}."""
    results = {}
    for label, config in ROWS:
        results[label] = {
            name: normalized_time(name, scale, config) for name in BENCHMARKS
        }
    return results


def main(scale="test"):
    results = run(scale)
    print("Table 1: normalized execution time (ours vs paper)")
    print("%-26s %16s %16s" % ("System Type", "crafty", "vpr"))
    for label, _config in ROWS:
        ours = results[label]
        paper = PAPER[label]
        print(
            "%-26s %7.1f (%6.1f) %7.1f (%6.1f)"
            % (label, ours["crafty"], paper["crafty"], ours["vpr"], paper["vpr"])
        )
    return results


if __name__ == "__main__":
    main()
