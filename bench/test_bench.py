"""Self-test of the benchmark: ``pytest bench/ -q`` (about 15 s).

Runs every workload in smoke mode (one program, one pass) with the
traced pass, and checks the sum rules, that the wrapped entry points are
restored, that the input draw follows the seed, and that a wrong output
fails the run.
"""

import json

import pytest

import run  # puts src/ on sys.path
from run import layers, workloads


def _entry_points():
    return {
        (owner, name): vars(layers.resolve(owner))[name]
        for _layer, owner, name in layers.ENTRY_POINTS
    }


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_smoke_sum_rules_and_restore(name):
    originals = _entry_points()
    detail = run.measure(name, seed=0, seconds=0, trace=True, smoke=True)
    assert detail["failed"] == 0, detail["failures"]
    assert detail["correct"]
    rules = detail["sum_rules"]
    # Host: layer self-times (+ the wrappers' calibrated cost) account
    # for the traced pass's wall time.
    for accounted, traced in zip(rules["accounted_s"], rules["traced_s"]):
        assert abs(accounted - traced) <= 0.02 * traced
    # Simulated: per engine run, the layers' cycles sum to the result's.
    assert rules["cycle_mismatches"] == []
    spec = run.load_spec()
    assert {m["name"] for m in spec["per_layer"]} <= set(detail["layers"])
    assert json.loads(run.driver_line(detail, spec, trace=True))["correct"]
    # Every wrapped attribute is the original object again.
    for key, original in _entry_points().items():
        assert original is originals[key], key


def test_draw_follows_seed():
    def inputs(seed):
        return [(p.name, p.source) for p in workloads.draw("subsystems", seed)]

    assert inputs(0) == inputs(0)
    assert len({tuple(inputs(seed)) for seed in range(5)}) > 1


def test_planted_mismatch_fails_the_run(monkeypatch, tmp_path):
    prepare = workloads.Program.prepare

    def corrupt(program, probe_footprint=False):
        prepare(program, probe_footprint)
        program.reference = program.reference._replace(
            output=program.reference.output + b"!"
        )

    monkeypatch.setattr(workloads.Program, "prepare", corrupt)
    out = tmp_path / "steady.json"
    status = run.main(["--workload", "steady", "--smoke", "--out", str(out)])
    detail = json.loads(out.read_text())
    assert status != 0
    assert not detail["correct"]
    assert detail["end_to_end"]["fail_ratio"]["value"] > 0


def _metric(value, samples):
    q1, q3 = run._quartiles(samples)
    return {"value": value, "q1": q1, "q3": q3, "samples": samples}


def test_compare_verdicts():
    base = _metric(1.0, [0.99, 1.0, 1.01])
    assert run.verdict(base, _metric(1.0, [0.99, 1.0, 1.01]), 0.1, "lower") == "unchanged"
    assert run.verdict(base, _metric(1.2, [1.19, 1.2, 1.21]), 0.1, "lower") == "worse"
    assert run.verdict(base, _metric(0.8, [0.79, 0.8, 0.81]), 0.1, "lower") == "better"
    assert run.verdict(base, _metric(0.95, [0.94, 0.95, 0.96]), 0.1, "lower") == "unchanged"
    noisy = _metric(1.0, [0.7, 1.0, 1.3])
    assert run.verdict(base, noisy, 0.1, "lower") == "unresolved"
    fast_noisy = _metric(0.5, [0.3, 0.5, 0.7])
    assert run.verdict(base, fast_noisy, 0.1, "lower") == "better"
    assert run.verdict(base, _metric(0.8, [0.79, 0.8, 0.81]), 0.1, "higher") == "worse"
