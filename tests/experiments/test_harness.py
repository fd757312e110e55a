"""Experiment harness tests."""

import pytest

from repro.core import DynamoRIO, RuntimeOptions
from repro.experiments.harness import (
    Config,
    NATIVE,
    geometric_mean,
    measure,
    normalized_time,
)
from repro.loader import Process
from repro.machine.cost import Family
from repro.machine.interp import Interpreter
from repro.workloads import benchmark, load_benchmark


class TestMeasure:
    def test_native_measure(self):
        m = measure("vpr", 1, NATIVE)
        assert m["cycles"] > 0
        assert m["outputs"][0]
        assert m["exit_codes"] == [0]

    def test_memoized(self):
        a = measure("vpr", 1, NATIVE)
        b = measure("vpr", 1, NATIVE)
        assert a is b

    def test_config_key_distinguishes(self):
        a = measure("vpr", 1, Config("bb_cache", RuntimeOptions.bb_cache_only))
        b = measure("vpr", 1, Config("traces", RuntimeOptions.with_traces))
        assert a["cycles"] != b["cycles"]

    def test_multi_run_benchmark_sums_runs(self):
        runs = benchmark("gcc").runs
        assert runs > 1
        single = Interpreter(Process(load_benchmark("gcc", 1))).run()
        multi = measure("gcc", 1, NATIVE)
        # every run starts cold from the same image: the sum is exact
        assert multi["cycles"] == runs * single.cycles
        assert multi["instructions"] == runs * single.instructions
        assert multi["outputs"] == [single.output] * runs
        assert multi["exit_codes"] == [single.exit_code] * runs

    @pytest.mark.parametrize("field", ["output", "exit_code"])
    def test_later_run_must_match_native(self, field, monkeypatch):
        """gcc runs 4 times: a difference in its second run alone is a
        transparency violation."""
        run = DynamoRIO.run
        calls = []

        def second_run_differs(runtime):
            result = run(runtime)
            calls.append(result)
            if len(calls) == 2:
                value = getattr(result, field)
                result = result._replace(**{
                    field: value + 1 if field == "exit_code" else value + b"!"
                })
            return result

        monkeypatch.setattr(DynamoRIO, "run", second_run_differs)
        with pytest.raises(AssertionError, match="run 2"):
            measure("gcc", 1, Config("second_run_%s" % field))

    def test_family_in_cache_key(self):
        p4 = measure("vpr", 1, Config("fam", family=Family.PENTIUM_IV))
        p3 = measure("vpr", 1, Config("fam", family=Family.PENTIUM_III))
        assert p4 is not p3


class TestNormalizedTime:
    def test_base_runtime_above_native(self):
        value = normalized_time("vpr", 1, Config("traces"))
        assert 0.9 < value < 5.0

    def test_transparency_enforced(self):
        # normalized_time raises if outputs differ; with correct
        # runtimes it must simply succeed
        normalized_time("gap", 1, Config("bb", RuntimeOptions.bb_cache_only))


class TestGeomean:
    def test_simple(self):
        assert geometric_mean([2.0, 8.0]) == pytest.approx(4.0)

    def test_single(self):
        assert geometric_mean([3.0]) == pytest.approx(3.0)

    def test_empty_is_nan(self):
        import math

        assert math.isnan(geometric_mean([]))


class TestTable1Module:
    def test_rows_cover_table(self):
        from repro.experiments import table1

        labels = [label for label, _ in table1.ROWS]
        assert labels == list(table1.PAPER)


class TestTable2Module:
    def test_collect_blocks(self):
        from repro.experiments import table2

        blocks = table2.collect_blocks("test", limit=50)
        assert len(blocks) == 50
        for pc, raw in blocks:
            assert len(raw) >= 1

    def test_process_levels_roundtrip(self):
        from repro.experiments import table2

        blocks = table2.collect_blocks("test", limit=20)
        for level in range(5):
            for pc, raw in blocks:
                il = table2.process_block_at_level(raw, pc, level)
                assert il.instr_count() >= 1

    def test_memory_monotone_until_raw_dropped(self):
        from repro.experiments import table2

        results = table2.run("test", repeats=1, limit=60)
        memories = [results[level][1] for level in range(5)]
        assert memories[0] < memories[1] <= memories[2] <= memories[3]
