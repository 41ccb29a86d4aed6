"""``repro autotune`` — offline sweeps that ship warm plan caches.

Usage::

    repro autotune sweep --out plans.json                # default grid
    repro autotune sweep --device A100 --shape 512x512x64 \\
        --sparsity 0.9 --min-bits 8x8 --out plans.json
    repro autotune export serving-cache.json --out plans.json
    repro autotune verify plans.json
    repro autotune diff old-plans.json new-plans.json
    repro autotune watch metrics.json --plans plans.json --out retuned

``sweep`` enumerates (plannable backends x devices x topology grid)
from the live backend registry, measures every surviving point, and
writes the artifact pair — ``plans.json`` (a schema-v2 plan cache any
engine can ``warm_start=``) plus ``plans.manifest.json`` (provenance +
fingerprints). ``verify`` re-checks an artifact's manifest against the
current registry and exits non-zero on drift; ``diff`` compares two
artifacts plan by plan. ``watch`` closes the serve → autotune loop
across processes: at every poll it re-loads a metrics file another
process exported (``repro.obs.export.write_snapshot(client.metrics,
path)``, a replay's ``*.metrics.json`` or ``repro fleet serve
--metrics-out``) and runs one re-tuning scheduler cycle over it —
decide, targeted re-sweep, and ship ``OUT/retune-NNNN/plans.json``
with a manifest naming the triggering traffic.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from pathlib import Path

from repro.errors import ReproError

_SHAPE = re.compile(r"^(\d+)x(\d+)x(\d+)$")
_BITS = re.compile(r"^(\d+)x(\d+)$")


def _parse_shape(text: str) -> tuple[int, int, int]:
    m = _SHAPE.match(text)
    if not m:
        raise argparse.ArgumentTypeError(
            f"bad shape {text!r}; expected MxKxN (e.g. 512x512x64)"
        )
    return (int(m.group(1)), int(m.group(2)), int(m.group(3)))


def _parse_bits(text: str) -> tuple[int, int]:
    m = _BITS.match(text)
    if not m:
        raise argparse.ArgumentTypeError(
            f"bad min-bits {text!r}; expected LxR (e.g. 8x8)"
        )
    return (int(m.group(1)), int(m.group(2)))


def _sweep_config(args):
    from repro.autotune.space import DEFAULT_SHAPES, SweepConfig

    return SweepConfig(
        ops=tuple(args.op) if args.op else ("spmm",),
        shapes=tuple(args.shape) if args.shape else DEFAULT_SHAPES,
        vector_lengths=tuple(args.vector_length) if args.vector_length else (8,),
        sparsities=tuple(args.sparsity) if args.sparsity else (0.9,),
        backends=tuple(args.backend) if args.backend else None,
        devices=tuple(args.device) if args.device else None,
        min_bits=tuple(args.min_bits) if args.min_bits else ((4, 4), (8, 8)),
        objective=args.objective,
        latency_budget_s=args.latency_budget,
        mask_patterns=tuple(args.mask_pattern) if args.mask_pattern else (),
    )


def _cmd_sweep(args) -> int:
    from repro.autotune.artifact import ArtifactManifest, write_artifact
    from repro.autotune.runner import SweepBudget, run_sweep

    config = _sweep_config(args)
    budget = SweepBudget(max_trials=args.trials, max_seconds=args.seconds)
    progress = None if args.quiet or args.json else (lambda line: print(f"  {line}"))
    if progress:
        print("sweeping...")
    report = run_sweep(
        config,
        budget=budget,
        warmup=args.warmup,
        repeats=args.repeats,
        prune_ratio=args.prune_ratio,
        progress=progress,
    )
    manifest = ArtifactManifest.for_report(report)
    plans_path, mpath = write_artifact(Path(args.out), report.cache, manifest)
    summary = {
        **report.summary(),
        "artifact": str(plans_path),
        "manifest": str(mpath),
    }
    if args.json:
        print(json.dumps(summary, indent=2, sort_keys=True))
    else:
        s = report.summary()
        print(
            f"swept {s['measured']}/{s['points']} points "
            f"({s['pruned']} pruned, {s['skipped']} skipped, "
            f"{s['failed']} failed) in {s['elapsed_s']:.2f}s; "
            f"median cold search {s['search_s_median'] * 1e3:.2f}ms"
        )
        print(f"shipped {s['plans']} plans -> {plans_path} (+ {mpath.name})")
    return 0 if report.measurements else 1


def _cmd_export(args) -> int:
    from repro.autotune.artifact import write_artifact
    from repro.serve.cache import PlanCache

    cache = PlanCache()
    cache.load(args.cache)
    plans_path, mpath = write_artifact(Path(args.out), cache)
    print(f"exported {len(cache)} plans -> {plans_path} (+ {mpath.name})")
    return 0


def _cmd_verify(args) -> int:
    from repro.autotune.artifact import check_drift, load_artifact

    cache, manifest = load_artifact(args.artifact)
    print(f"{args.artifact}: {len(cache)} plans")
    if manifest is None:
        print("no manifest found; provenance cannot be verified")
        return 1
    print(f"produced by {manifest.created_by} at git {manifest.git}")
    drift = check_drift(manifest)
    if not drift:
        print(
            f"OK: {len(manifest.backends)} backend and "
            f"{len(manifest.devices)} device fingerprints match the "
            f"live registry"
        )
        return 0
    print(f"DRIFT: {len(drift)} mismatch(es) against the live registry:")
    for line in drift:
        print(f"  - {line}")
    return 1


def _cmd_diff(args) -> int:
    from repro.autotune.artifact import load_artifact
    from repro.bench.report import render_table

    a, _ = load_artifact(args.a)
    b, _ = load_artifact(args.b)
    keys_a, keys_b = set(a.keys()), set(b.keys())
    added = sorted(keys_b - keys_a)
    removed = sorted(keys_a - keys_b)
    changed = []
    for key in sorted(keys_a & keys_b):
        pa, pb = a.peek(key), b.peek(key)
        if pa.to_dict() != pb.to_dict():
            changed.append((key, pa, pb))
    for label, keys in (("added", added), ("removed", removed)):
        for key in keys:
            print(f"{label}: {key}")
    if changed:
        rows = [
            [
                key.split("|", 1)[0],
                key,
                f"{pa.precision} -> {pb.precision}",
                f"{pa.predicted_time_s * 1e6:.2f} -> "
                f"{pb.predicted_time_s * 1e6:.2f}",
            ]
            for key, pa, pb in changed
        ]
        print(render_table(
            ["op", "key", "precision", "predicted us"],
            rows, title="-- changed plans --",
        ))
    if not (added or removed or changed):
        print(f"identical: {len(keys_a)} plans")
        return 0
    print(
        f"{len(added)} added, {len(removed)} removed, "
        f"{len(changed)} changed (of {len(keys_a | keys_b)})"
    )
    return 1


def _cmd_watch(args) -> int:
    import time as _time

    from repro.autotune.policy import RetunePolicy
    from repro.autotune.runner import SweepBudget
    from repro.autotune.scheduler import RetuneScheduler
    from repro.errors import ConfigError
    from repro.obs.export import load_json
    from repro.obs.metrics import MetricsRegistry
    from repro.serve.cache import PlanCache

    # the baseline artifact's plans are what a re-sweep is compared
    # against, and their keys count as warm
    cache = PlanCache()
    if args.plans:
        cache.load(args.plans)
    policy = RetunePolicy(
        min_requests=args.min_requests,
        hot_share=args.hot_share,
        regression_ratio=args.regression_ratio,
        max_keys=args.max_keys,
        cooldown_s=args.cooldown,
        budget=SweepBudget(max_trials=args.trials, max_seconds=args.seconds),
        warmup=args.warmup,
        repeats=args.repeats,
        artifact_dir=args.out,
    )
    scheduler = RetuneScheduler(
        MetricsRegistry(), policy, cache=cache, baseline_keys=cache.keys()
    )
    cycles = []
    for i in range(args.cycles):
        if i:
            _time.sleep(args.interval)
        try:
            scheduler.metrics = load_json(Path(args.metrics).read_text())
        except (OSError, ConfigError) as exc:
            print(f"error: cannot read metrics {args.metrics}: {exc}",
                  file=sys.stderr)
            return 2
        cycle = scheduler.run_once()
        cycles.append(cycle)
        if args.json:
            print(json.dumps(cycle.to_dict(), indent=2, sort_keys=True))
            continue
        if not cycle.triggers:
            print(
                f"cycle {i + 1}: snapshot {cycle.snapshot_fingerprint} — "
                f"nothing to re-tune"
            )
            continue
        print(
            f"cycle {i + 1}: snapshot {cycle.snapshot_fingerprint} — "
            f"{len(cycle.triggers)} trigger(s), {cycle.measured} measured, "
            f"{cycle.promoted} plan(s) shipped in {cycle.elapsed_s:.2f}s"
        )
        for t in cycle.triggers:
            print(f"  {t.reason:<10} {t.plan_key}")
        for key, why in cycle.skipped:
            print(f"  skipped    {key}: {why}")
        if cycle.artifact is not None:
            print(f"  -> {cycle.artifact}")
    return 0 if any(c.promoted for c in cycles) or not any(
        c.triggers for c in cycles
    ) else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro autotune", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sweep = sub.add_parser("sweep", help="run an offline sweep, ship an artifact")
    sweep.add_argument("--op", action="append", choices=("spmm", "sddmm"),
                       help="ops to sweep (repeatable; default spmm)")
    sweep.add_argument("--shape", action="append", type=_parse_shape,
                       metavar="MxKxN", help="topology grid entry (repeatable)")
    sweep.add_argument("--vector-length", action="append", type=int, metavar="V",
                       help="vector lengths (repeatable; default 8)")
    sweep.add_argument("--sparsity", action="append", type=float, metavar="S",
                       help="sparsity grid entry (repeatable; default 0.9)")
    sweep.add_argument("--mask-pattern", action="append", metavar="NAME",
                       help="attention-mask zoo pattern to price (repeatable; "
                            "sparsities become density targets and cells are "
                            "priced at each pattern's realized sparsity)")
    sweep.add_argument("--backend", action="append", metavar="NAME",
                       help="restrict to registered backends (repeatable; "
                            "default: every plannable backend)")
    sweep.add_argument("--device", action="append", metavar="NAME",
                       help="restrict devices (repeatable; default: all modelled)")
    sweep.add_argument("--min-bits", action="append", type=_parse_bits,
                       metavar="LxR", help="objective minima, e.g. 8x8 "
                       "(repeatable; default 4x4 and 8x8)")
    sweep.add_argument("--objective", choices=("latency", "accuracy"),
                       default="latency")
    sweep.add_argument("--latency-budget", type=float, default=None, metavar="S",
                       help="accuracy objective's latency budget in seconds")
    sweep.add_argument("--warmup", type=int, default=1)
    sweep.add_argument("--repeats", type=int, default=3)
    sweep.add_argument("--trials", type=int, default=None, metavar="N",
                       help="measure at most N points")
    sweep.add_argument("--seconds", type=float, default=None, metavar="S",
                       help="stop measuring after S seconds of wall clock")
    sweep.add_argument("--prune-ratio", type=float, default=4.0, metavar="R",
                       help="prune a backend after consecutive >Rx cost-model "
                            "losses (0 disables; default 4.0)")
    sweep.add_argument("--out", required=True, metavar="PATH",
                       help="artifact path (plan-cache JSON; the manifest "
                            "lands beside it)")
    sweep.add_argument("--json", action="store_true",
                       help="print a machine-readable summary")
    sweep.add_argument("--quiet", action="store_true")
    sweep.set_defaults(fn=_cmd_sweep)

    export = sub.add_parser(
        "export", help="wrap an existing plan-cache JSON into an artifact"
    )
    export.add_argument("cache", help="plan-cache JSON (e.g. from a serving run)")
    export.add_argument("--out", required=True, metavar="PATH")
    export.set_defaults(fn=_cmd_export)

    verify = sub.add_parser(
        "verify", help="check an artifact's manifest against the live registry"
    )
    verify.add_argument("artifact", help="plan-cache JSON of the artifact")
    verify.set_defaults(fn=_cmd_verify)

    diff = sub.add_parser("diff", help="compare two artifacts plan by plan")
    diff.add_argument("a")
    diff.add_argument("b")
    diff.set_defaults(fn=_cmd_diff)

    watch = sub.add_parser(
        "watch",
        help="re-tune targeted plan keys from an exported metrics file",
    )
    watch.add_argument(
        "metrics",
        help="metrics JSON (repro.obs.export.write_snapshot, a replay's "
             "*.metrics.json or repro fleet serve --metrics-out)",
    )
    watch.add_argument("--plans", default=None, metavar="PATH",
                       help="baseline artifact: its keys count as warm, "
                            "everything else a serving process planned live "
                            "is a cold miss")
    watch.add_argument("--out", required=True, metavar="DIR",
                       help="ship each re-tune as DIR/retune-NNNN/plans.json")
    watch.add_argument("--min-requests", type=int, default=1, metavar="N",
                       help="ignore metrics with fewer requests (default 1)")
    watch.add_argument("--hot-share", type=float, default=0.10, metavar="F",
                       help="traffic share that makes a key hot (default 0.10)")
    watch.add_argument("--regression-ratio", type=float, default=1.5,
                       metavar="R", help="observed/predicted latency ratio "
                       "that triggers a re-tune (default 1.5)")
    watch.add_argument("--max-keys", type=int, default=8, metavar="N",
                       help="re-tune at most N keys per cycle (default 8)")
    watch.add_argument("--cooldown", type=float, default=300.0, metavar="S",
                       help="per-key floor between re-tunes across cycles "
                            "(default 300)")
    watch.add_argument("--trials", type=int, default=64, metavar="N",
                       help="sweep budget: measure at most N points")
    watch.add_argument("--seconds", type=float, default=60.0, metavar="S",
                       help="sweep budget: wall-clock cap per cycle")
    watch.add_argument("--warmup", type=int, default=0)
    watch.add_argument("--repeats", type=int, default=1)
    watch.add_argument("--cycles", type=int, default=1, metavar="N",
                       help="poll the metrics file N times (default 1)")
    watch.add_argument("--interval", type=float, default=5.0, metavar="S",
                       help="seconds between polls (default 5)")
    watch.add_argument("--json", action="store_true",
                       help="print machine-readable cycle records")
    watch.set_defaults(fn=_cmd_watch)

    args = parser.parse_args(argv)
    if getattr(args, "prune_ratio", None) == 0:
        args.prune_ratio = None
    try:
        return args.fn(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
