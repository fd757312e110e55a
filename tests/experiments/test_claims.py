"""The paper's claims, asserted over the checked-in golden.

Every number here is a row of GOLDEN.json; `python -m
repro.experiments.golden` keeps the file current, so these tests hold
the paper's shape on every change without rerunning the experiments.
Table 2, the paper's only host-time result, is measured (slow-marked).
"""

import pytest

from repro.experiments import ablations, figure5, golden, table1, table2
from repro.workloads import all_benchmarks


@pytest.fixture(scope="module")
def rows():
    return golden.load()


def normalized(rows, name, scale, config_key):
    """Cycles under ``config_key`` / native cycles, from the golden."""
    cycles = rows[golden.row_key(name, scale, config_key)]["cycles"]
    return cycles / rows[golden.row_key(name, scale, "native")]["cycles"]


# --------------------------------------------------------------- Table 1


@pytest.fixture(scope="module")
def ladder(rows):
    # The paper's Table 1 runs crafty and vpr; the golden holds the
    # ladder for every benchmark, and so does the claim.
    return {
        label: {
            bench.name: normalized(rows, bench.name, "test", config.key)
            for bench in all_benchmarks()
        }
        for label, config in table1.ROWS
    }


@pytest.mark.parametrize("label", [label for label, _config in table1.ROWS])
def test_table1_row_never_beats_native(ladder, label):
    for value in ladder[label].values():
        assert value > 0.9  # a translator never beats native with no client


def test_table1_each_mechanism_improves(ladder):
    emulation = ladder["Emulation"]
    bb = ladder["+ Basic block cache"]
    direct = ladder["+ Link direct branches"]
    indirect = ladder["+ Link indirect branches"]
    traces = ladder["+ Traces"]
    for name in emulation:
        assert emulation[name] > bb[name] > direct[name] > indirect[name]
        assert traces[name] <= direct[name]
        assert emulation[name] > 100  # "several hundred"


# -------------------------------------------------------------- Figure 5


@pytest.fixture(scope="module")
def bars(rows):
    return {
        bench.name: {
            key: normalized(rows, bench.name, "small", config.key)
            for key, config in figure5.CONFIGS
        }
        for bench in all_benchmarks()
    }


def test_figure5_every_bar_is_plausible(bars):
    assert len(bars) == 22
    for row in bars.values():
        assert set(row) == {key for key, _config in figure5.CONFIGS}
        assert all(value > 0.5 for value in row.values())


def test_figure5_rlr_wins_on_fp_stencils(bars):
    assert bars["mgrid"]["rlr"] < bars["mgrid"]["base"]
    assert bars["swim"]["rlr"] < bars["swim"]["base"]


def test_figure5_indirect_dispatch_wins_on_parser(bars):
    assert bars["parser"]["ibdisp"] < bars["parser"]["base"]


def test_figure5_short_runs_gain_nothing(bars):
    # gcc: multiple short runs, little reuse to amortize optimization
    assert bars["gcc"]["all"] > 0.95 * bars["gcc"]["base"]


def test_figure5_combined_beats_base_dynamorio(bars):
    summary = figure5.summarize(bars)
    improvement = 1 - summary["all"]["all"] / summary["base"]["all"]
    # The paper: 12%.  EXPERIMENTS.md records 11.6%.
    assert round(improvement * 100, 1) == 11.6


# ------------------------------------------------------------- Ablations


def sweep(rows, kind):
    name, scale, _label, points = ablations.SWEEPS[kind]
    return {
        point: normalized(rows, name, scale, config.key)
        for point, config in points.items()
    }


def test_trace_threshold_has_a_sweet_spot(rows):
    # an extreme threshold must not beat every moderate one: the
    # counting/coverage tradeoff is real
    result = sweep(rows, "trace_threshold")
    assert min(result[20], result[80]) <= result[320] + 0.05


def test_unlimited_cache_never_worse_than_a_tiny_one(rows):
    result = sweep(rows, "cache_limit")
    assert result[None] <= result[1536]


def test_some_dispatch_beats_none(rows):
    result = sweep(rows, "dispatch_targets")
    assert min(result[2], result[4]) < result[0]


def test_custom_trace_sizes_are_plausible(rows):
    result = sweep(rows, "custom_trace_size")
    assert all(value > 0.5 for value in result.values())


# ---------------------------------------------------- Eviction policies


def test_fifo_retranslates_less_than_flush_at_every_limit(rows):
    def retranslations(policy, name, fraction):
        events = rows[golden.row_key(
            name, "test", golden.policy_key(policy, fraction)
        )]["events"]
        return events["bbs_built"] + events.get("traces_built", 0)

    for name in golden.POLICY_BENCHMARKS:
        for fraction in golden.FRACTIONS:
            assert (retranslations("fifo", name, fraction)
                    < retranslations("flush", name, fraction))


def test_policies_never_change_program_behaviour(rows):
    for name in golden.POLICY_BENCHMARKS:
        native = rows[golden.row_key(name, "test", "native")]
        for fraction in golden.FRACTIONS:
            for policy in golden.POLICIES:
                row = rows[golden.row_key(
                    name, "test", golden.policy_key(policy, fraction)
                )]
                assert row["output"] == native["output"]
                assert row["exit_codes"] == native["exit_codes"]


# --------------------------------------------------------------- Table 2


@pytest.mark.slow
def test_table2_cost_is_monotone_in_level():
    results = table2.run("test", repeats=1, limit=300)
    times = [results[level][0] for level in range(5)]
    memories = [results[level][1] for level in range(5)]
    # Levels 1 and 2 are close by design (the level-2 decode adds only
    # the opcode/eflags table walk), so allow measurement noise there.
    assert times[0] < times[1]
    assert times[1] <= times[2] * 1.4
    assert times[2] < times[3] * 1.2
    assert times[3] < times[4]
    assert times[4] / times[0] > 10
    assert memories[0] < memories[1]
    assert abs(memories[1] - memories[2]) / memories[1] < 0.05
    assert memories[3] > memories[2]
