"""The simulated golden (GOLDEN.json): shape, a recomputed subset, and
a negative control that plants a cost bug and a flag bug."""

import pytest

from repro.core import closures
from repro.experiments import golden, harness, table1
from repro.isa.opcodes import Opcode

RUNTIME_ROWS = [config.key for _label, config in table1.ROWS[1:]]


@pytest.fixture(scope="module")
def checked_in():
    return golden.load()


def test_golden_holds_every_row(checked_in):
    keys = [row.key for row in golden.rows(footprint=lambda name: 0)]
    assert len(keys) == len(set(keys)) == len(checked_in) == 345
    assert set(keys) == set(checked_in)


def test_golden_is_one_sorted_compact_line_per_row(checked_in, tmp_path):
    golden.write(checked_in, tmp_path / "GOLDEN.json")
    assert (tmp_path / "GOLDEN.json").read_text() == golden.GOLDEN.read_text()


def test_table1_subset_matches_golden(checked_in):
    now = {
        row.key: golden.compute(row)
        for row in golden.table1_rows(table1.BENCHMARKS)
    }
    assert len(now) == 12
    assert golden.diff(checked_in, now) == []


def test_diff_names_row_field_golden_and_now():
    want = {"a": {"cycles": 1, "events": {"x": 2}, "output": "d"}}
    now = {
        "a": {"cycles": 1, "events": {"x": 3, "y": 1}, "output": "d"},
        "b": {"cycles": 5},
    }
    assert golden.diff(want, now) == [
        ("a", "events.x", 2, 3),
        ("a", "events.y", 0, 1),
        ("b", "row", None, "new"),
    ]


def test_planted_cost_and_flag_bugs_drift_exactly(checked_in, monkeypatch):
    """The pre-fix AF mask (2253) in the segment templates changes vpr's
    final state; one extra cycle per XOR in generated segments changes
    crafty's cycles.  Each shows on every runtime row of its benchmark,
    in that field alone."""
    for name in ("_LOGIC_FLAGS", "_SUB_FLAGS", "_ADD_FLAGS", "_INC_FLAGS",
                 "_DEC_FLAGS"):
        template = getattr(closures, name)
        assert "~2261" in template
        monkeypatch.setattr(closures, name, template.replace("~2261", "~2253"))
    compile_segment = closures.compile_segment

    def costly_xor(instrs, *args):
        return compile_segment(
            [(op, ops, cost + (op == Opcode.XOR)) for op, ops, cost in instrs],
            *args,
        )

    monkeypatch.setattr(closures, "compile_segment", costly_xor)
    # Native runs never reach the segment compiler: keep them memoized.
    monkeypatch.setattr(harness, "_cache", {
        key: value for key, value in harness._cache.items()
        if key[2] == "native"
    })
    now = {
        row.key: golden.compute(row)
        for row in golden.table1_rows(table1.BENCHMARKS)
        if row.config.key in RUNTIME_ROWS
    }
    drifted = {(key, field) for key, field, _want, _got
               in golden.diff(checked_in, now)}
    assert drifted == (
        {(golden.row_key("crafty", "test", row), "cycles")
         for row in RUNTIME_ROWS}
        | {(golden.row_key("vpr", "test", row), "final_state")
           for row in RUNTIME_ROWS}
    )
