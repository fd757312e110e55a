"""Ablation studies for the design choices DESIGN.md calls out.

Not in the paper, but each probes a knob the paper's design fixes:

* **trace-head threshold** — too low builds cold traces, too high pays
  counting overhead longer (Section 3.5's counter mechanism);
* **code-cache capacity** — unlimited (the paper's configuration) vs
  constrained caches with coarse flushing;
* **dispatch chain length** — how many compare-and-branch pairs the
  Section 4.3 client may install before the chain costs more than the
  hashtable lookup it replaces;
* **custom-trace maximum size** — Section 4.4's unrolling guard.
"""

from functools import partial

from repro.clients import CustomTraces, IndirectBranchDispatch
from repro.experiments.harness import Config, normalized_time, options_with


# sweep -> (benchmark, scale, printed label, {point: Config}).
SWEEPS = {
    "trace_threshold": ("crafty", "test", "threshold", {
        t: Config("threshold_%d" % t, options_with(trace_threshold=t))
        for t in (5, 20, 80, 320)
    }),
    "cache_limit": ("crafty", "test", "limit", {
        limit: Config(
            "cache_%s" % ("unlimited" if limit is None else limit),
            options_with(code_cache_limit=limit),
        )
        for limit in (None, 4096, 1536)
    }),
    # 'small' scale: the adaptive rewrites need enough run length to
    # amortize their profiling clean calls.
    "dispatch_targets": ("parser", "small", "max_targets", {
        0: Config("disp_0"),  # no client at all
        **{
            n: Config(
                "disp_%d" % n,
                client_factory=partial(IndirectBranchDispatch, max_targets=n),
            )
            for n in (2, 4, 8)
        },
    }),
    "custom_trace_size": ("crafty", "test", "max_blocks", {
        size: Config(
            "ctrace_%d" % size,
            client_factory=partial(CustomTraces, max_trace_blocks=size),
        )
        for size in (4, 12, 24)
    }),
}


def run(sweep):
    """{point: normalized time} for one of :data:`SWEEPS`."""
    name, scale, _label, points = SWEEPS[sweep]
    return {
        point: normalized_time(name, scale, config)
        for point, config in points.items()
    }


def main():
    for sweep, (name, scale, label, _points) in SWEEPS.items():
        print("Ablation: %s (%s @%s, normalized time)" % (sweep, name, scale))
        for point, value in run(sweep).items():
            print("  %s=%-9s %.3f" % (label, point, value))


if __name__ == "__main__":
    main()
