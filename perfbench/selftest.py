"""Self-test of the benchmark: BENCHMARK.json and the printed output.

Run from the repository root::

    python3 perfbench/selftest.py

It checks ``BENCHMARK.json`` against the benchmark format, runs every
workload for one second with ``--trace 0`` and ``--trace 1``, parses
the last line of each run's output under the output format, and
asserts that every metric named in ``BENCHMARK.json`` is present under
exactly that name with its unit, that every output check passed, and
that a copy holding only ``BENCHMARK.json`` and the benchmark's own
files exits non-zero without printing a result. Exits 0 on success.
"""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH = re.compile(r"^[A-Za-z0-9_./-]{1,200}$")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def check_spec(spec: dict) -> None:
    assert set(spec) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }, f"BENCHMARK.json keys: {sorted(spec)}"
    command = spec["command"]
    assert 1 <= len(command) <= 32 and all(
        isinstance(c, str) and len(c) <= 200 for c in command
    )
    paths = spec["paths"]
    assert 1 <= len(paths) <= 16
    for p in paths:
        assert PATH.match(p) and not p.startswith("/") and ".." not in p.split("/")
        assert (ROOT / p).is_dir(), f"path {p} is not a directory"
    for arg in command[1:]:
        if "/" in arg:
            assert any(arg.startswith(p.rstrip("/") + "/") for p in paths), arg
    seconds = spec["run_seconds"]
    assert isinstance(seconds, int) and 1 <= seconds <= 60
    # all runs (4 + 22 per workload), at up to 8 s of imports, inputs
    # and set-up on top of the measured seconds each, fit in 57 minutes
    assert (4 + 22 * len(spec["workloads"])) * (seconds + 8) <= 3420
    names: set[str] = set()
    assert 2 <= len(spec["workloads"]) <= 8
    for w in spec["workloads"]:
        assert set(w) == {"name", "why"}
        assert len(w["why"]) <= 200 and "\n" not in w["why"]
        names.add(w["name"])
    assert 1 <= len(spec["end_to_end"]) <= 16
    for m in spec["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}, m
        assert 0 < m["bound"] <= 0.25, m
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in spec["end_to_end"])
    assert 1 <= len(spec["per_layer"]) <= 128
    for m in spec["per_layer"]:
        assert set(m) == {"name", "unit", "better"}, m
    every = [w["name"] for w in spec["workloads"]] + [
        m["name"] for m in spec["end_to_end"] + spec["per_layer"]
    ]
    for name in every:
        assert NAME.match(name), f"bad name {name!r}"
    assert len(every) == len(set(every)), "a name is used twice"
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert UNIT.match(m["unit"]), m
        assert m["better"] in ("lower", "higher"), m
    assert len(json.dumps(spec)) <= 64 * 1024

    from layers import METRICS
    from workloads import WORKLOADS

    assert names == set(WORKLOADS), (names, sorted(WORKLOADS))
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(METRICS)


def parse_result(stdout: str) -> dict:
    """The last line of standard output, checked against the format."""
    lines = stdout.strip().splitlines()
    assert lines, "no output"
    result = json.loads(lines[-1])
    assert isinstance(result, dict) and set(result) == RESULT_KEYS, result
    assert isinstance(result["correct"], bool)
    for key in ("attempted", "failed"):
        assert isinstance(result[key], int) and not isinstance(result[key], bool)
    assert result["attempted"] >= 1 and result["failed"] >= 0
    for name, metric in result["metrics"].items():
        assert isinstance(metric, dict) and set(metric) == {"value", "unit"}, name
        value = metric["value"]
        assert isinstance(value, (int, float)) and not isinstance(value, bool)
        assert math.isfinite(value), (name, value)
    return result


def run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_spec(spec)
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace, wanted in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            proc = run(workload, trace)
            assert proc.returncode == 0, (workload, trace, proc.stderr[-3000:])
            result = parse_result(proc.stdout)
            units = {n: m["unit"] for n, m in result["metrics"].items()}
            assert units == {m["name"]: m["unit"] for m in wanted}, (
                workload, trace, units,
            )
            assert result["correct"] and result["failed"] == 0, (workload, result)
            if trace == 0:
                for m in spec["end_to_end"]:
                    assert result["metrics"][m["name"]]["value"] != 0, m["name"]
            print(f"ok  {workload:14s} trace={trace} "
                  f"attempted={result['attempted']}")

    # a checkout without the library must fail without printing a result
    stripped = HERE / "out" / "stripped"
    shutil.rmtree(stripped, ignore_errors=True)
    stripped.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", stripped)
    for p in spec["paths"]:
        shutil.copytree(
            ROOT / p, stripped / p,
            ignore=shutil.ignore_patterns("out", "__pycache__"),
        )
    proc = run(spec["workloads"][0]["name"], 0, cwd=stripped)
    shutil.rmtree(stripped)
    assert proc.returncode != 0 and not proc.stdout.strip(), proc.stdout
    print("ok  stripped checkout exits", proc.returncode, "with no result")
    return 0


if __name__ == "__main__":
    sys.exit(main())
