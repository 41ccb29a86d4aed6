"""The unified ``repro`` console entry point."""

import pytest

from repro.cli import main


class TestDispatch:
    def test_help_lists_subcommands(self, capsys):
        assert main(["--help"]) == 0
        out = capsys.readouterr().out
        for command in ("serve", "autotune", "bench"):
            assert command in out

    def test_no_args_prints_help(self, capsys):
        assert main([]) == 2
        assert "serve" in capsys.readouterr().out

    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 2
        assert "unknown command" in capsys.readouterr().err

    def test_version(self, capsys):
        from repro import __version__

        assert main(["--version"]) == 0
        assert __version__ in capsys.readouterr().out

    def test_serve_delegates(self, capsys):
        assert main(["serve", "--plan", "spmm:512x512x64:v=8:s=0.9"]) == 0
        out = capsys.readouterr().out
        assert "precision:" in out

    def test_bench_delegates(self, capsys):
        assert main(["bench", "--list"]) == 0
        assert "table1" in capsys.readouterr().out

    def test_autotune_delegates(self, tmp_path, capsys):
        rc = main([
            "autotune", "sweep", "--device", "A100",
            "--shape", "256x256x64", "--min-bits", "8x8",
            "--repeats", "1", "--trials", "4", "--quiet",
            "--out", str(tmp_path / "plans.json"),
        ])
        assert rc == 0
        assert (tmp_path / "plans.json").exists()
        assert (tmp_path / "plans.manifest.json").exists()

    def test_subcommand_help_passthrough(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["serve", "--help"])
        assert exc.value.code == 0
        assert "--demo" in capsys.readouterr().out


class TestModuleEntrypoint:
    def test_python_m_repro(self):
        import runpy
        import sys
        from unittest import mock

        with mock.patch.object(sys, "argv", ["repro", "bench", "--list"]):
            with pytest.raises(SystemExit) as exc:
                runpy.run_module("repro", run_name="__main__")
        assert exc.value.code == 0

    @pytest.mark.parametrize(
        "subsystem", ["serve", "bench", "autotune", "fleet", "obs"]
    )
    def test_subsystems_have_no_module_alias(self, subsystem):
        # ``python -m repro <cmd>`` is the one module entry point
        import importlib.util

        assert importlib.util.find_spec(f"repro.{subsystem}.__main__") is None


class TestClosedPipe:
    def test_reader_closing_early_exits_quietly(self):
        """``repro obs summary | head -1``: the reader closes after one
        line while the command still has output to write."""
        import os
        import subprocess
        import sys
        from pathlib import Path

        import repro

        root = Path(__file__).resolve().parents[2]
        env = dict(os.environ, PYTHONPATH=str(Path(repro.__file__).parents[1]))
        read_end, write_end = os.pipe()
        try:
            import fcntl

            # one page of pipe buffer: the ~13 kB summary cannot fit, so
            # the writer is still writing when the reader goes away
            fcntl.fcntl(write_end, fcntl.F_SETPIPE_SZ, 4096)
        except (ImportError, AttributeError, OSError):
            pass
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "obs", "summary",
             "--metrics", str(root / "BENCH_serve.metrics.json")],
            stdout=write_end, stderr=subprocess.PIPE, env=env, cwd=root,
        )
        os.close(write_end)
        line = b""
        while not line.endswith(b"\n"):
            chunk = os.read(read_end, 1)
            if not chunk:
                break
            line += chunk
        os.close(read_end)
        _, stderr = proc.communicate(timeout=60)
        assert line.startswith(b"# metrics from")
        assert stderr == b""
        assert proc.returncode == 0
