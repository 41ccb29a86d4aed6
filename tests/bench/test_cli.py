"""Smoke tests for the ``repro bench`` CLI."""

from repro.bench.cli import EXPERIMENTS, main


class TestCli:
    def test_list(self, capsys):
        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        for key in ("table1", "fig14", "table5"):
            assert key in out

    def test_unknown_experiment(self, capsys):
        assert main(["fig99"]) == 2

    def test_static_tables_run(self, capsys):
        assert main(["table1", "table2", "table3", "table4"]) == 0
        out = capsys.readouterr().out
        assert "Magicube" in out
        assert "m8n8k16" in out
        assert "L12-R4" in out

    def test_fig11_runs(self, capsys):
        assert main(["fig11", "--count", "1"]) == 0
        out = capsys.readouterr().out
        assert "L4-R4" in out

    def test_backends_sweep_runs(self, capsys):
        assert main(["backends"]) == 0
        out = capsys.readouterr().out
        # magicube on every integer-tensor-core device, fp16 elsewhere
        assert "magicube-emulation" in out
        assert "vector-sparse" in out
        assert "H100" in out and "V100" in out
        assert "L4-R4" in out  # A100's int4 latency winner

    def test_autotune_cold_vs_warm_runs(self, capsys):
        """The warm engine hits every swept class on first contact."""
        assert main(["autotune", "--count", "1"]) == 0
        out = capsys.readouterr().out
        assert "cold" in out and "warm" in out
        assert "100.0%" in out  # warm first-contact hit rate
        assert "plans shipped" in out

    def test_retune_closes_the_loop(self, capsys):
        """The scheduler-converged engine hits every class of a shifted
        workload on first contact, with snapshot provenance, without a
        manual sweep (the experiment asserts its own convergence)."""
        assert main(["retune", "--count", "1"]) == 0
        out = capsys.readouterr().out
        assert "scheduler" in out and "manual-warm" in out
        assert "100.0%" in out  # scheduler-converged hit rate
        assert "provenance" in out and "snapshot" in out
        assert "loop closed" in out

    def test_registry_complete(self):
        assert set(EXPERIMENTS) == {
            "table1",
            "table2",
            "table3",
            "table4",
            "table5",
            "fig11",
            "fig12",
            "fig13",
            "fig14",
            "fig15",
            "fig17",
            "serve",
            "backends",
            "autotune",
            "retune",
        }
