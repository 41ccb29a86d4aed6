"""Executable documentation: every fenced ``python`` block must run.

The extractor walks README.md and every ``docs/*.md`` file, pulls the
fenced ```` ```python ```` blocks out, and executes each file's blocks
**in order, sharing one namespace** (notebook semantics — an early
block may define the operands a later block uses). Blocks run inside a
temporary working directory, so examples that write files
(``plans.json``, ``telemetry.json``) stay hermetic, and examples that
*read* files which do not exist exercise the library's documented
degrade-to-cold-start paths.

A failing example fails the suite with the file name and line number
of the block — the CI job that runs this is what keeps the docs from
silently rotting as the code moves.
"""

from __future__ import annotations

import re
import warnings
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[2]
DOC_FILES = [REPO / "README.md", *sorted((REPO / "docs").glob("*.md"))]

_FENCE = re.compile(r"^```python[ \t]*\n(.*?)^```[ \t]*$", re.M | re.S)


def python_blocks(path: Path) -> list[tuple[int, str]]:
    """``(first line number, source)`` for every fenced python block."""
    text = path.read_text()
    return [
        (text[: match.start()].count("\n") + 2, match.group(1))
        for match in _FENCE.finditer(text)
    ]


def test_doc_files_exist():
    names = {p.name for p in DOC_FILES}
    assert "README.md" in names
    # the seven subsystem docs plus the architecture map and runbook
    for doc in ("api.md", "runtime.md", "serving.md", "autotuning.md",
                "observability.md", "fleet.md", "architecture.md",
                "operations.md"):
        assert doc in names, f"{doc} is missing from docs/"


def test_observability_doc_names_every_standard_metric():
    """The metric table in observability.md mirrors names.STANDARD_METRICS.

    The names module is the single source of truth; this is the drift
    guard its docstring promises — adding (or renaming) a metric without
    updating the documented table fails here.
    """
    from repro.obs.names import STANDARD_METRICS

    text = (REPO / "docs" / "observability.md").read_text()
    documented = set(re.findall(r"\| `(repro_[a-z_]+)` \|", text))
    declared = {name for name, _, _, _ in STANDARD_METRICS}
    assert documented == declared, (
        f"docs missing: {sorted(declared - documented)}; "
        f"stale in docs: {sorted(documented - declared)}"
    )


def test_docs_actually_contain_examples():
    """The extractor must never silently match nothing."""
    total = sum(len(python_blocks(p)) for p in DOC_FILES)
    assert total >= 10, f"only {total} fenced python blocks found"


@pytest.mark.parametrize("path", DOC_FILES, ids=lambda p: p.name)
def test_examples_run(path: Path, tmp_path, monkeypatch):
    blocks = python_blocks(path)
    if not blocks:
        pytest.skip(f"{path.name} has no fenced python examples")
    monkeypatch.chdir(tmp_path)  # examples may write artifact files
    namespace: dict = {"__name__": f"docs_example_{path.stem}"}
    for lineno, source in blocks:
        code = compile(source, f"{path.name}:{lineno}", "exec")
        with warnings.catch_warnings():
            # missing-artifact warm starts warn by design; deprecations
            # must still fail
            warnings.simplefilter("ignore", RuntimeWarning)
            warnings.simplefilter("error", DeprecationWarning)
            try:
                exec(code, namespace)  # noqa: S102 - the point of the test
            except Exception as exc:
                pytest.fail(
                    f"{path.name} example starting at line {lineno} "
                    f"raised {type(exc).__name__}: {exc}"
                )
