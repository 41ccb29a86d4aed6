"""Exporters: a metrics registry as JSON or Prometheus text.

Two formats, one registry:

- **JSON snapshot** — the full instrument state (bucket counts
  included) under a schema version; lossless, and
  :func:`load_json` rebuilds a registry from it. This is the format
  the ``repro obs`` CLI passes between processes.
- **Prometheus text exposition** — ``# HELP`` / ``# TYPE`` lines plus
  samples, histograms expanded to cumulative ``_bucket{le=...}`` /
  ``_sum`` / ``_count`` series. Scrape-ready; also parseable by
  :func:`parse_prometheus` (used by the CI gate to check every
  documented metric is named).
"""

from __future__ import annotations

import json
import math
from pathlib import Path

from repro.errors import ConfigError
from repro.ioutil import atomic_write_text
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    merge_histograms,
)

__all__ = [
    "EXPORT_SCHEMA",
    "load_json",
    "parse_prometheus",
    "render_json",
    "render_prometheus",
    "write_snapshot",
]

EXPORT_SCHEMA = 1


def render_json(registry: MetricsRegistry) -> str:
    """The registry as a schema-versioned JSON document."""
    return json.dumps(
        {"schema": EXPORT_SCHEMA, "metrics": registry.to_dict()},
        indent=2,
        sort_keys=True,
    )


def load_json(text: str) -> MetricsRegistry:
    """Rebuild a registry from :func:`render_json` output.

    Anything else — invalid JSON, another schema, or another document
    that happens to carry ``"schema": 1`` but no ``metrics`` mapping
    (every ``BENCH_*.json`` report does) — raises
    :class:`~repro.errors.ConfigError`.
    """
    try:
        doc = json.loads(text)
    except ValueError as exc:
        raise ConfigError(f"not a metrics snapshot: {exc}") from None
    schema = doc.get("schema") if isinstance(doc, dict) else None
    if schema != EXPORT_SCHEMA:
        raise ConfigError(
            f"metrics snapshot schema {schema!r} is not {EXPORT_SCHEMA}"
        )
    if not isinstance(doc.get("metrics"), dict):
        raise ConfigError(
            "not a metrics snapshot: no 'metrics' mapping (is this a "
            "BENCH report rather than its .metrics.json?)"
        )
    return MetricsRegistry.from_dict(doc["metrics"])


def write_snapshot(registry: MetricsRegistry, path: "str | Path") -> Path:
    """Atomically write the JSON snapshot; returns the path."""
    return atomic_write_text(path, render_json(registry) + "\n")


def _fmt(v: float) -> str:
    """Prometheus sample value: integers without the trailing .0."""
    if v == math.inf:
        return "+Inf"
    if float(v).is_integer():
        return str(int(v))
    return repr(float(v))


def _escape(value: str) -> str:
    """Prometheus label-value escaping: ``\\``, newline, ``"``."""
    return (
        str(value)
        .replace("\\", "\\\\")
        .replace("\n", "\\n")
        .replace('"', '\\"')
    )


def _labels(labels: dict, extra: "tuple[str, str] | None" = None) -> str:
    pairs = sorted(labels.items())
    if extra is not None:
        pairs.append(extra)
    if not pairs:
        return ""
    body = ",".join(f'{k}="{_escape(v)}"' for k, v in pairs)
    return "{" + body + "}"


def render_prometheus(registry: MetricsRegistry) -> str:
    """The registry in the Prometheus text exposition format."""
    lines: list[str] = []
    for name in registry.names():
        kind = registry.kind(name)
        samples = registry.samples(name)
        help_line = registry.to_dict()[name]["help"]
        if help_line:
            lines.append(f"# HELP {name} {help_line}")
        lines.append(f"# TYPE {name} {kind}")
        for labels, instrument in samples:
            if isinstance(instrument, (Counter, Gauge)):
                lines.append(f"{name}{_labels(labels)} {_fmt(instrument.value)}")
            elif isinstance(instrument, Histogram):
                cumulative = 0
                for bound, n in zip(
                    (*instrument.buckets, math.inf), instrument.counts
                ):
                    cumulative += n
                    le = _labels(labels, ("le", _fmt(bound)))
                    lines.append(f"{name}_bucket{le} {cumulative}")
                lines.append(
                    f"{name}_sum{_labels(labels)} {_fmt(instrument.sum)}"
                )
                lines.append(
                    f"{name}_count{_labels(labels)} {instrument.count}"
                )
    return "\n".join(lines) + "\n" if lines else ""


def _parse_label_body(body: str, raw: str) -> dict[str, str]:
    """Tokenize ``k="v",k2="v2"`` honouring the value escapes.

    The naive ``split(",")`` reader corrupts any label value that
    contains a comma, quote, or backslash — exactly the values
    :func:`_escape` now protects on the render side — so this walks the
    body character by character, undoing ``\\\\``, ``\\n`` and ``\\"``.
    """
    labels: dict[str, str] = {}
    i, n = 0, len(body)
    while i < n:
        eq = body.find("=", i)
        if eq < 0 or eq + 1 >= n or body[eq + 1] != '"':
            raise ConfigError(f"unparseable label value in: {raw!r}")
        key = body[i:eq]
        chars: list[str] = []
        j = eq + 2
        while j < n and body[j] != '"':
            ch = body[j]
            if ch == "\\":
                if j + 1 >= n:
                    raise ConfigError(f"unparseable label value in: {raw!r}")
                nxt = body[j + 1]
                chars.append({"\\": "\\", "n": "\n", '"': '"'}.get(nxt, nxt))
                j += 2
            else:
                chars.append(ch)
                j += 1
        if j >= n:
            raise ConfigError(f"unparseable label value in: {raw!r}")
        labels[key] = "".join(chars)
        i = j + 1
        if i < n:
            if body[i] != ",":
                raise ConfigError(f"unparseable labels in: {raw!r}")
            i += 1
    return labels


def parse_prometheus(text: str) -> dict[str, dict]:
    """Parse exposition text back to ``{family: {kind, samples}}``.

    A deliberately strict reader for *our* exporter's output (the CI
    gate and tests use it) — unknown line shapes raise rather than
    skip, so a formatting regression cannot hide.
    """
    families: dict[str, dict] = {}
    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        if line.startswith("# HELP "):
            _, _, rest = line.partition("# HELP ")
            name, _, help_line = rest.partition(" ")
            families.setdefault(name, {"kind": "", "help": "", "samples": []})
            families[name]["help"] = help_line
            continue
        if line.startswith("# TYPE "):
            _, _, rest = line.partition("# TYPE ")
            name, _, kind = rest.partition(" ")
            if kind not in ("counter", "gauge", "histogram"):
                raise ConfigError(f"unparseable TYPE line: {raw!r}")
            families.setdefault(name, {"kind": "", "help": "", "samples": []})
            families[name]["kind"] = kind
            continue
        if line.startswith("#"):
            raise ConfigError(f"unparseable comment line: {raw!r}")
        # sample: name{labels} value  |  name value
        head, _, value = line.rpartition(" ")
        if not head:
            raise ConfigError(f"unparseable sample line: {raw!r}")
        name, _, label_body = head.partition("{")
        labels: dict[str, str] = {}
        if label_body:
            if not label_body.endswith("}"):
                raise ConfigError(f"unparseable labels in: {raw!r}")
            labels = _parse_label_body(label_body[:-1], raw)
        base = name
        for suffix in ("_bucket", "_sum", "_count"):
            if name.endswith(suffix) and name[: -len(suffix)] in families:
                base = name[: -len(suffix)]
                break
        if base not in families:
            raise ConfigError(f"sample for undeclared family: {raw!r}")
        families[base]["samples"].append(
            {
                "series": name,
                "labels": labels,
                "value": math.inf if value == "+Inf" else float(value),
            }
        )
    return families


def summarize(registry: MetricsRegistry) -> str:
    """A human-oriented one-screen rendering (``repro obs summary``)."""
    from repro.bench.report import render_table

    def hist_row(name: str, label_text: str, h: Histogram) -> list:
        return [
            name, label_text, h.count, f"{h.mean:.3e}",
            f"{h.quantile(0.50):.3e}", f"{h.quantile(0.95):.3e}",
            f"{h.quantile(0.99):.3e}",
        ]

    counter_rows, gauge_rows, hist_rows = [], [], []
    for name, family in registry.to_dict().items():
        kind = family["kind"]
        samples = family["samples"]
        for sample in samples:
            label_text = ",".join(
                f"{k}={v}" for k, v in sorted(sample["labels"].items())
            )
            if kind == "counter":
                counter_rows.append([name, label_text, _fmt(sample["value"])])
            elif kind == "gauge":
                gauge_rows.append([name, label_text, _fmt(sample["value"])])
            else:
                hist_rows.append(
                    hist_row(name, label_text, merge_histograms([sample]))
                )
        if kind == "histogram" and len(samples) > 1:
            # the family across every label set: the number the serving
            # telemetry TOTAL row and BENCH_serve.json report
            hist_rows.append(hist_row(name, "(all)", merge_histograms(samples)))
    blocks = []
    if counter_rows:
        blocks.append(render_table(
            ["counter", "labels", "value"], counter_rows,
            title="-- counters --",
        ))
    if gauge_rows:
        blocks.append(render_table(
            ["gauge", "labels", "value"], gauge_rows, title="-- gauges --",
        ))
    if hist_rows:
        blocks.append(render_table(
            ["histogram", "labels", "count", "mean", "p50", "p95", "p99"],
            hist_rows, title="-- histograms --",
        ))
    return "\n".join(blocks) if blocks else "(no metrics recorded)"
