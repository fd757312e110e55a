"""Smoke tests for the drequiv sweep CLI."""

from repro.tools.equiv_sweep import main


class TestEquivSweep:
    def test_single_benchmark_all_client_passes(self, capsys):
        rc = main(
            [
                "--benchmarks", "mgrid",
                "--clients", "all,ctrace",
            ]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "0 failures" in out
