"""``repro`` — the single console entry point.

Usage::

    repro serve --demo                  # batched serving demo
    repro serve --plan spmm:512x512x256:v=8:s=0.9
    repro autotune sweep --out plans.json
    repro autotune verify plans.json
    repro bench backends                # registered-backend sweep
    repro bench fig14 table2

Each subcommand delegates to the matching subsystem CLI
(:mod:`repro.serve.cli`, :mod:`repro.autotune.cli`,
:mod:`repro.bench.cli`, ...) with the remaining arguments untouched.
``python -m repro <cmd>`` is the same entry point.
"""

from __future__ import annotations

import argparse
import importlib
import os
import sys

from repro.version import __version__

#: subcommand -> (module with a ``main(argv) -> int``, help line)
_COMMANDS: dict[str, tuple[str, str]] = {
    "serve": (
        "repro.serve.cli",
        "batched serving demo and planner inspection",
    ),
    "autotune": (
        "repro.autotune.cli",
        "offline sweeps that ship warm plan caches (sweep/export/verify/diff)",
    ),
    "bench": (
        "repro.bench.cli",
        "regenerate the paper's tables and figures, plus serving benchmarks",
    ),
    "obs": (
        "repro.obs.cli",
        "inspect metrics snapshots and request traces (summary/tail/export)",
    ),
    "fleet": (
        "repro.fleet.cli",
        "sharded multi-process serving front door (serve/status/pack)",
    ),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Magicube (SC'22) reproduction — one typed API, one CLI. "
            "Run a subcommand with -h for its own flags."
        ),
    )
    # --version is dispatched manually in main() (the parser only
    # renders help); declare it here so it shows up in --help
    parser.add_argument(
        "--version", action="store_true", help="print the version and exit"
    )
    sub = parser.add_subparsers(
        dest="command", metavar="{serve,autotune,bench,obs,fleet}"
    )
    for name, (_module, help_line) in _COMMANDS.items():
        sub.add_parser(name, help=help_line, add_help=False)
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = _build_parser()
    if not argv:
        parser.print_help()
        return 2
    if argv[0] in ("-h", "--help"):
        parser.print_help()
        return 0
    if argv[0] == "--version":
        print(f"repro {__version__}")
        return 0
    command, rest = argv[0], argv[1:]
    if command not in _COMMANDS:
        parser.print_usage(sys.stderr)
        print(
            f"repro: unknown command {command!r}; "
            f"expected one of {sorted(_COMMANDS)}",
            file=sys.stderr,
        )
        return 2
    module = importlib.import_module(_COMMANDS[command][0])
    try:
        return module.main(rest)
    except BrokenPipeError:
        # the reader went away (``repro obs summary | head``): not an
        # error. Point stdout at devnull so the exit-time flush of what
        # is still buffered does not raise again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
