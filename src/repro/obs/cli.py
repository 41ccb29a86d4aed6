"""``repro obs`` — inspect metrics snapshots, traces, profiles, health.

Usage::

    repro obs summary                      # tables from a metrics snapshot
    repro obs summary --metrics m.json
    repro obs export --format prometheus   # scrape-ready text
    repro obs export --format json --out metrics.json
    repro obs tail -n 5                    # most recent request traces
    repro obs tail --follow                # poll the trace log for new ones
    repro obs tail --session s0 --plan-key 'spmm|...'   # filtered
    repro obs profile --top 10             # self-time attribution table
    repro obs health                       # grade SLOs over a snapshot
    repro obs health --probe               # exit 0/1/2 = healthy/degraded/breach

The commands operate on the artifacts a serving run exports — by
default the files ``repro bench serve --replay`` writes
(``BENCH_serve.metrics.json`` / ``BENCH_serve.trace.jsonl``). When no
snapshot exists yet, ``summary``, ``export`` and ``health`` fall back
to an empty registry with every standard metric declared, so ``repro
obs export --format prometheus`` always names the full documented
contract and ``repro obs health --probe`` grades a quiet engine as
healthy (exit 0) rather than failing the probe on a missing file.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from repro.errors import ConfigError, ReproError
from repro.obs.export import (
    load_json,
    render_json,
    render_prometheus,
    summarize,
    write_snapshot,
)
from repro.obs.health import DEFAULT_SLOS, SloSpec, evaluate_registry
from repro.obs.metrics import MetricsRegistry
from repro.obs.names import declare_standard
from repro.obs.profile import attribute

__all__ = ["DEFAULT_METRICS_PATH", "DEFAULT_TRACE_PATH", "main"]

#: the artifacts the traffic-replay bench leaves at the repo root
DEFAULT_METRICS_PATH = "BENCH_serve.metrics.json"
DEFAULT_TRACE_PATH = "BENCH_serve.trace.jsonl"


def _load_registry(path: str) -> tuple[MetricsRegistry, str]:
    """(registry, provenance line) for a snapshot path that may not exist."""
    p = Path(path)
    if p.exists():
        try:
            return load_json(p.read_text()), f"metrics from {p}"
        except ConfigError as exc:
            raise ConfigError(f"{p}: {exc}") from None
    registry = declare_standard(MetricsRegistry())
    return registry, f"{p} not found; showing the (empty) standard contract"


def _cmd_summary(args: argparse.Namespace) -> int:
    registry, provenance = _load_registry(args.metrics)
    print(f"# {provenance}")
    print(summarize(registry))
    return 0


def _cmd_export(args: argparse.Namespace) -> int:
    registry, provenance = _load_registry(args.metrics)
    if args.format == "prometheus":
        text = render_prometheus(registry)
    else:
        text = render_json(registry) + "\n"
    if args.out:
        if args.format == "json":
            write_snapshot(registry, args.out)
        else:
            from repro.ioutil import atomic_write_text

            atomic_write_text(args.out, text)
        print(f"wrote {args.out} ({provenance})")
    else:
        sys.stdout.write(text)
    return 0


def _render_trace_line(doc: dict) -> str:
    lines = [
        f"request {doc.get('request_id')} "
        f"[{doc.get('op')}@{doc.get('session')}]"
    ]
    spans = doc.get("spans", [])
    children: dict[int | None, list[dict]] = {}
    for span in spans:
        children.setdefault(span.get("parent_id"), []).append(span)

    def walk(parent: int | None, depth: int) -> None:
        for span in children.get(parent, []):
            attrs = span.get("attrs") or {}
            facts = " ".join(f"{k}={v}" for k, v in sorted(attrs.items()))
            lines.append(
                f"{'  ' * (depth + 1)}{span['name']}: "
                f"{span.get('wall_s', 0.0) * 1e3:.3f} ms"
                + (f"  ({facts})" if facts else "")
            )
            walk(span["span_id"], depth + 1)

    walk(None, 0)
    return "\n".join(lines)


def _trace_matches(doc: dict, args: argparse.Namespace) -> bool:
    """Does a trace document pass the ``--session`` / ``--plan-key``
    filters? A plan key matches when *any* span carries it."""
    if args.session and doc.get("session") != args.session:
        return False
    if args.plan_key:
        for span in doc.get("spans", ()):
            attrs = span.get("attrs") or {}
            if attrs.get("plan_key") == args.plan_key:
                break
        else:
            return False
    return True


def _cmd_tail(args: argparse.Namespace) -> int:
    path = Path(args.trace)
    if not path.exists() and not args.follow:
        print(
            f"{path} not found; run `repro bench serve --replay` (or export "
            f"a tracer) first",
            file=sys.stderr,
        )
        return 1
    if args.follow:
        return _tail_follow(path, args)
    lines = [ln for ln in path.read_text().splitlines() if ln.strip()]
    docs = [d for d in map(json.loads, lines) if _trace_matches(d, args)]
    for doc in docs[-args.n:]:
        print(_render_trace_line(doc))
    if not docs:
        print(
            "(no matching traces)" if lines else "(trace log is empty)"
        )
    return 0


def _tail_follow(path: Path, args: argparse.Namespace) -> int:
    """Poll the trace log and print traces as they are appended.

    The tracer's JSONL ring file is rewritten atomically (a shrink
    means a rotation), so the follower tracks a byte offset and resets
    it whenever the file shrinks. ``--max-polls`` bounds the loop for
    scripts and tests; the default (0) polls until interrupted.
    """
    offset = 0
    polls = 0
    try:
        while True:
            if path.exists():
                data = path.read_text()
                if len(data) < offset:  # rotated/truncated: start over
                    offset = 0
                chunk = data[offset:]
                # only consume complete lines; a partial tail line is
                # an in-flight append we will see on the next poll
                consumed = chunk.rfind("\n") + 1
                offset += consumed
                for line in chunk[:consumed].splitlines():
                    if not line.strip():
                        continue
                    doc = json.loads(line)
                    if _trace_matches(doc, args):
                        print(_render_trace_line(doc), flush=True)
            polls += 1
            if args.max_polls and polls >= args.max_polls:
                return 0
            time.sleep(args.interval)
    except KeyboardInterrupt:  # pragma: no cover - interactive exit
        return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    from repro.bench.report import render_table

    path = Path(args.trace)
    if not path.exists():
        print(
            f"{path} not found; run `repro bench serve --replay` (or export "
            f"a tracer) first",
            file=sys.stderr,
        )
        return 1
    docs = [
        json.loads(ln)
        for ln in path.read_text().splitlines()
        if ln.strip()
    ]
    rows = attribute(docs)
    if args.json:
        print(json.dumps(rows[: args.top], indent=2, sort_keys=True))
        return 0
    print(f"# self-time attribution from {path} ({len(docs)} trace(s))")
    if not rows:
        print("(no spans recorded)")
        return 0
    total_self = sum(r["self_s"] for r in rows) or 1.0
    table = [
        [
            r["phase"], r["backend"], r["plan_key"], r["count"],
            f"{r['self_s'] * 1e3:.3f}",
            f"{r['self_s'] / total_self:.1%}",
            f"{r['wall_s'] * 1e3:.3f}",
        ]
        for r in rows[: args.top]
    ]
    print(render_table(
        ["phase", "backend", "plan_key", "count", "self ms", "self %",
         "wall ms"],
        table,
    ))
    if len(rows) > args.top:
        print(f"... {len(rows) - args.top} more row(s); raise --top to see")
    return 0


def _load_slos(path: "str | None") -> tuple[SloSpec, ...]:
    """SLO specs from a JSON file (a list of SloSpec field dicts), or
    the defaults when no file is named."""
    if not path:
        return DEFAULT_SLOS
    docs = json.loads(Path(path).read_text())
    return tuple(SloSpec(**doc) for doc in docs)


def _cmd_health(args: argparse.Namespace) -> int:
    from repro.bench.report import render_table

    registry, provenance = _load_registry(args.metrics)
    report = evaluate_registry(registry, _load_slos(args.slos))
    print(f"# {provenance}")
    print(render_table(
        ["objective", "kind", "status", "burn", "detail"],
        [
            [r.spec.name, r.spec.kind, r.status, f"{r.burn:.2f}x", r.detail]
            for r in report.results
        ],
    ))
    print(f"overall: {report.status}")
    if args.out:
        report.save(args.out)
        print(f"wrote {args.out}")
    return report.exit_code() if args.probe else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="repro obs", description=__doc__)
    sub = parser.add_subparsers(
        dest="command", metavar="{summary,tail,export,profile,health}"
    )

    p_summary = sub.add_parser(
        "summary", help="render a metrics snapshot as tables"
    )
    p_summary.add_argument(
        "--metrics", default=DEFAULT_METRICS_PATH,
        help="metrics snapshot JSON (default: %(default)s)",
    )
    p_summary.set_defaults(fn=_cmd_summary)

    p_export = sub.add_parser(
        "export", help="export a metrics snapshot (json or prometheus)"
    )
    p_export.add_argument(
        "--metrics", default=DEFAULT_METRICS_PATH,
        help="metrics snapshot JSON (default: %(default)s)",
    )
    p_export.add_argument(
        "--format", choices=("json", "prometheus"), default="json",
    )
    p_export.add_argument("--out", help="write here instead of stdout")
    p_export.set_defaults(fn=_cmd_export)

    p_tail = sub.add_parser(
        "tail", help="show the most recent request traces"
    )
    p_tail.add_argument(
        "--trace", default=DEFAULT_TRACE_PATH,
        help="trace JSONL log (default: %(default)s)",
    )
    p_tail.add_argument("-n", type=int, default=10, help="traces to show")
    p_tail.add_argument(
        "--session", default="", help="only traces from this session id"
    )
    p_tail.add_argument(
        "--plan-key", default="",
        help="only traces whose spans carry this plan key",
    )
    p_tail.add_argument(
        "--follow", action="store_true",
        help="poll the log and print new traces as they land",
    )
    p_tail.add_argument(
        "--interval", type=float, default=0.5,
        help="--follow poll interval in seconds (default: %(default)s)",
    )
    p_tail.add_argument(
        "--max-polls", type=int, default=0,
        help="stop --follow after this many polls (default: until ^C)",
    )
    p_tail.set_defaults(fn=_cmd_tail)

    p_profile = sub.add_parser(
        "profile", help="self-time attribution from a trace log"
    )
    p_profile.add_argument(
        "--trace", default=DEFAULT_TRACE_PATH,
        help="trace JSONL log (default: %(default)s)",
    )
    p_profile.add_argument(
        "--top", type=int, default=20, help="rows to show (default: %(default)s)"
    )
    p_profile.add_argument(
        "--json", action="store_true", help="emit the rows as JSON"
    )
    p_profile.set_defaults(fn=_cmd_profile)

    p_health = sub.add_parser(
        "health", help="grade SLO objectives over a metrics snapshot"
    )
    p_health.add_argument(
        "--metrics", default=DEFAULT_METRICS_PATH,
        help="metrics snapshot JSON (default: %(default)s)",
    )
    p_health.add_argument(
        "--slos", default="",
        help="JSON file of SloSpec field dicts (default: built-in SLOs)",
    )
    p_health.add_argument("--out", help="also write the report JSON here")
    p_health.add_argument(
        "--probe", action="store_true",
        help="exit 0/1/2 for healthy/degraded/breach (probe semantics)",
    )
    p_health.set_defaults(fn=_cmd_health)

    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help()
        return 2
    try:
        return args.fn(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
