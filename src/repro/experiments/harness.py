"""Shared experiment machinery.

``measure(name, scale, config)`` runs one benchmark under one
configuration and sums its runs, handling the multiple-short-runs
benchmarks (gcc, perlbmk): those are executed ``runs`` times with cold
caches, exactly like SPEC invoking the binary repeatedly — the effect
behind the paper's perlbmk/gcc slowdowns.  Every run under the runtime
must reproduce the output and exit code of the matching native run.

Results are memoized per (benchmark, scale, config-key) within a
process so table and figure modules and the golden
(:mod:`repro.experiments.golden`) share runs.
"""

from repro.core import DynamoRIO, RuntimeOptions
from repro.loader import Process
from repro.machine.cost import CostModel, Family
from repro.machine.interp import Interpreter
from repro.tools.oracle import final_state
from repro.workloads import benchmark, load_benchmark
from repro.workloads.spec import SCALES


class Config:
    """One experimental configuration."""

    def __init__(self, key, options_factory=None, client_factory=None,
                 family=Family.PENTIUM_IV, native=False):
        self.key = key
        self.options_factory = options_factory or RuntimeOptions.with_traces
        self.client_factory = client_factory
        self.family = family
        self.native = native

    def __repr__(self):
        return "<Config %s>" % self.key


NATIVE = Config("native", native=True)


def options_with(**overrides):
    """Options factory: Table 1's full configuration plus ``overrides``."""

    def factory():
        options = RuntimeOptions.with_traces()
        for key, value in overrides.items():
            setattr(options, key, value)
        return options

    return factory

_cache = {}


def summarize(runs):
    """One measurement from ``(RunResult, final_state)`` pairs: summed
    cycles, instructions and events, and every run's output, exit code
    and final state."""
    events = {}
    for result, _state in runs:
        for key, value in result.events.items():
            events[key] = events.get(key, 0) + value
    return {
        "cycles": sum(result.cycles for result, _state in runs),
        "instructions": sum(result.instructions for result, _state in runs),
        "events": events,
        "outputs": [result.output for result, _state in runs],
        "exit_codes": [result.exit_code for result, _state in runs],
        "final_states": [state for _result, state in runs],
    }


def measure(name, scale, config):
    """:func:`summarize` over every run of ``name`` under ``config``.

    Multi-run benchmarks are summed over their runs (native runs are
    repeated too, so normalization stays fair).  Raises AssertionError
    when a run's output or exit code differs from native's.
    """
    cache_key = (name, SCALES.get(scale, scale), config.key, config.family)
    if cache_key in _cache:
        return _cache[cache_key]
    native = None if config.native else measure(name, scale, NATIVE)
    image = load_benchmark(name, scale)
    runs = []
    for index in range(benchmark(name).runs):
        process = Process(image)
        if config.native:
            runner = Interpreter(
                process, CostModel(config.family), mode="native"
            )
        else:
            client = (
                config.client_factory() if config.client_factory else None
            )
            runner = DynamoRIO(
                process,
                options=config.options_factory(),
                client=client,
                cost_model=CostModel(config.family),
            )
        result = runner.run()
        if native is not None:
            for field, got, want in (
                ("output", result.output, native["outputs"][index]),
                ("exit code", result.exit_code, native["exit_codes"][index]),
            ):
                if got != want:
                    raise AssertionError(
                        "transparency violated for %s under %s: run %d %s "
                        "%r, native %r"
                        % (name, config.key, index + 1, field, got, want)
                    )
        runs.append((result, final_state(runner)))
    measurement = summarize(runs)
    _cache[cache_key] = measurement
    return measurement


def normalized_time(name, scale, config):
    """Cycles under config / native cycles (the paper's metric)."""
    under = measure(name, scale, config)
    return under["cycles"] / measure(name, scale, NATIVE)["cycles"]


def geometric_mean(values):
    if not values:
        return float("nan")
    product = 1.0
    for v in values:
        product *= v
    return product ** (1.0 / len(values))
