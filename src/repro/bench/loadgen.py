"""Traffic-replay load generator: the serving stack under open-loop load.

This is the bench that finally exercises the *whole* runtime path the
way a deployment does — typed requests arriving on a clock, admission
control pushing back, the micro-batcher coalescing, the planner
resolving, telemetry and the :mod:`repro.obs` metrics registry keeping
score — and writes the numbers down as a schema-versioned
``BENCH_serve.json`` artifact, with the full observability triad next
to it: the raw metrics snapshot, the span-tree trace log, an SLO
health report (``BENCH_serve.health.json``, graded over
:data:`repro.obs.health.DEFAULT_SLOS`), and the sampling profiler's
flamegraph exports (``BENCH_serve.profile.json`` speedscope +
``BENCH_serve.folded.txt``).

Three arrival processes are built in (all seeded, all deterministic in
their *schedules*; wall-clock numbers naturally vary per host):

- ``poisson`` — exponential inter-arrivals at ``rate_rps``;
- ``bursty``  — Poisson bursts of ``burst_size`` back-to-back arrivals;
- ``uniform`` — a fixed ``1 / rate_rps`` tick;
- ``trace``   — replay explicit arrival offsets from a JSON file.

The request mix is drawn per-arrival from ``mix`` (SpMM / SDDMM /
attention / whole-model transformer classes over fixed prepared
operands), so plan-cache and batching behaviour matches a
bounded-request-class deployment.

CLI::

    python -m repro.bench serve --replay --requests 200 --arrival bursty
    python -m repro.bench compare BENCH_serve.json baseline.json
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from repro.errors import AdmissionError, ConfigError
from repro.ioutil import atomic_write_text
from repro.runtime import DEFAULT_BACKEND

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.metrics import Histogram, MetricsRegistry

__all__ = [
    "BENCH_SCHEMA",
    "ReplayConfig",
    "arrival_offsets",
    "compare_main",
    "compare_reports",
    "run_replay",
]

#: schema version stamped into ``BENCH_serve.json``
BENCH_SCHEMA = 1

#: default report path (repo root when run from it)
DEFAULT_OUT = "BENCH_serve.json"


def _side_path(out: str | Path, artifact: str) -> Path:
    """Where a side artifact of the report ``out`` goes: next to it,
    named after it — ``X.json`` -> ``X.metrics.json`` for
    ``artifact="metrics.json"`` (likewise ``trace.jsonl``,
    ``health.json``, ``profile.json``, ``folded.txt``)."""
    return Path(out).with_suffix(f".{artifact}")


@dataclass(frozen=True)
class ReplayConfig:
    """One replay run: how much load, shaped how, over which mix."""

    requests: int = 120
    arrival: str = "poisson"  # poisson | bursty | uniform | trace
    rate_rps: float = 400.0
    burst_size: int = 8
    seed: int = 0
    #: (request class, weight) pairs the generator draws from
    mix: tuple[tuple[str, float], ...] = (
        ("spmm", 0.6), ("sddmm", 0.25), ("attention", 0.15),
    )
    #: JSON file holding a list of arrival offsets (s) for ``trace``
    trace_path: str | Path | None = None
    device: str = "A100"
    #: queue-depth admission bound (None admits everything)
    max_queue_depth: int | None = 64
    #: route through a :class:`repro.fleet.Gateway` with this many
    #: worker processes instead of a single in-process engine
    #: (None = direct engine, the historical path)
    gateway_workers: int | None = None
    #: the runtime backend the engine (or every fleet worker) serves on
    backend: str = DEFAULT_BACKEND

    def __post_init__(self) -> None:
        if self.requests < 1:
            raise ConfigError("replay needs at least 1 request")
        if self.rate_rps <= 0:
            raise ConfigError("rate_rps must be > 0")
        if self.arrival not in ("poisson", "bursty", "uniform", "trace"):
            raise ConfigError(f"unknown arrival process {self.arrival!r}")
        if self.arrival == "trace" and self.trace_path is None:
            raise ConfigError("arrival='trace' needs trace_path=")
        if not self.mix or not any(w > 0 for _, w in self.mix):
            raise ConfigError("mix must carry at least one positive weight")
        if self.gateway_workers is not None and self.gateway_workers < 1:
            raise ConfigError(
                f"gateway_workers must be >= 1, got {self.gateway_workers}"
            )

    def to_dict(self) -> dict:
        return {
            "requests": self.requests,
            "arrival": self.arrival,
            "rate_rps": self.rate_rps,
            "burst_size": self.burst_size,
            "seed": self.seed,
            "mix": [[name, w] for name, w in self.mix],
            "trace_path": str(self.trace_path) if self.trace_path else None,
            "device": self.device,
            "max_queue_depth": self.max_queue_depth,
            "gateway_workers": self.gateway_workers,
            "backend": self.backend,
        }


def arrival_offsets(config: ReplayConfig) -> list[float]:
    """Deterministic arrival offsets (seconds from replay start)."""
    rng = np.random.default_rng(config.seed)
    n, rate = config.requests, config.rate_rps
    if config.arrival == "uniform":
        return [i / rate for i in range(n)]
    if config.arrival == "poisson":
        gaps = rng.exponential(1.0 / rate, size=n)
        gaps[0] = 0.0
        return np.cumsum(gaps).tolist()
    if config.arrival == "bursty":
        # bursts of back-to-back arrivals, exponential gaps *between*
        # bursts at the same average rate
        offsets: list[float] = []
        t = 0.0
        while len(offsets) < n:
            burst = min(config.burst_size, n - len(offsets))
            offsets.extend([t] * burst)
            t += float(rng.exponential(burst / rate))
        return offsets[:n]
    # trace: explicit offsets from a JSON list, cycled / truncated to n
    try:
        raw = json.loads(Path(config.trace_path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(
            f"cannot read arrival trace {config.trace_path}: {exc}"
        ) from exc
    if not isinstance(raw, list) or not raw:
        raise ConfigError(
            f"arrival trace {config.trace_path} must be a non-empty JSON list"
        )
    offsets = [float(x) for x in raw]
    base = offsets[0]
    offsets = [x - base for x in offsets]
    while len(offsets) < n:  # cycle the trace to fill the request count
        span = offsets[-1] + 1.0 / rate
        offsets.extend(x + span for x in offsets[: n - len(offsets)])
    return offsets[:n]


@dataclass
class _Workload:
    """The fixed request classes a replay draws from."""

    classes: list[str] = field(default_factory=list)
    weights: list[float] = field(default_factory=list)
    spmm_lhs: object = None
    sddmm_mask: object = None
    spmm_rhs: object = None
    sddmm_a: object = None
    sddmm_b: object = None
    transformer_ids: object = None


def _build_workload(config: ReplayConfig) -> _Workload:
    from repro.dlmc.generator import MatrixSpec, generate_matrix

    w = _Workload()
    for name, weight in config.mix:
        if name not in ("spmm", "sddmm", "attention", "transformer"):
            raise ConfigError(f"unknown request class {name!r} in mix")
        if weight > 0:
            w.classes.append(name)
            w.weights.append(float(weight))
    total = sum(w.weights)
    w.weights = [x / total for x in w.weights]
    rng = np.random.default_rng(config.seed + 1)
    if "spmm" in w.classes:
        spec = MatrixSpec("transformer", 256, 256, sparsity=0.9, seed=config.seed)
        w.spmm_lhs = generate_matrix(spec, vector_length=8, bits=8)
        w.spmm_rhs = rng.integers(-8, 8, size=(256, 64), dtype=np.int8)
    if "sddmm" in w.classes:
        spec = MatrixSpec("transformer", 256, 256, sparsity=0.95, seed=config.seed)
        w.sddmm_mask = generate_matrix(spec, vector_length=8, bits=8)
        w.sddmm_a = rng.integers(-8, 8, size=(256, 32), dtype=np.int8)
        w.sddmm_b = rng.integers(-8, 8, size=(32, 256), dtype=np.int8)
    if "transformer" in w.classes:
        # one row of token ids per arrival; the batcher coalesces rows
        # across same-class arrivals into one planned forward
        w.transformer_ids = rng.integers(0, 16, size=(1, 64), dtype=np.int64)
    return w


def _make_request(kind: str, w: _Workload):
    from repro import api

    if kind == "spmm":
        return api.SpmmRequest(
            lhs=w.spmm_lhs, rhs=w.spmm_rhs, session="replay-spmm"
        )
    if kind == "sddmm":
        return api.SddmmRequest(
            mask=w.sddmm_mask, a=w.sddmm_a, b=w.sddmm_b, session="replay-sddmm"
        )
    if kind == "transformer":
        return api.TransformerRequest(
            ids=w.transformer_ids, seq_len=64, d_model=32, num_heads=2,
            num_layers=1, mask_variant="local", session="replay-xf",
        )
    return api.AttentionRequest(seq_len=128, num_layers=1, session="replay-attn")


def _merged_histogram(registry: "MetricsRegistry", name: str) -> "Histogram | None":
    """One histogram with every label set's observations folded in."""
    import threading

    from repro.obs.metrics import Histogram

    samples = [h for _, h in registry.samples(name) if h.count]
    if not samples:
        return None
    merged = Histogram(threading.Lock(), samples[0].buckets)
    for h in samples:
        if h.buckets != merged.buckets:  # pragma: no cover - defensive
            raise ConfigError(f"family {name!r} mixes bucket layouts")
        merged.counts = [a + b for a, b in zip(merged.counts, h.counts)]
        merged.count += h.count
        merged.sum += h.sum
        merged.min = min(merged.min, h.min)
        merged.max = max(merged.max, h.max)
    return merged


def _latency_stats(registry: "MetricsRegistry", name: str) -> dict:
    h = _merged_histogram(registry, name)
    if h is None:
        return {"count": 0, "mean": 0.0, "p50": 0.0, "p95": 0.0, "p99": 0.0}
    return {
        "count": h.count,
        "mean": h.mean,
        "p50": h.quantile(0.50),
        "p95": h.quantile(0.95),
        "p99": h.quantile(0.99),
    }


def _counter_total(registry: "MetricsRegistry", name: str) -> float:
    if name not in registry.names():
        return 0.0
    return sum(c.value for _, c in registry.samples(name))


def run_replay(
    config: ReplayConfig | None = None, *, out: str | Path | None = DEFAULT_OUT
) -> dict:
    """Replay one arrival schedule against a live engine; return (and
    optionally write to ``out``) the ``BENCH_serve.json`` report dict.

    Beyond the report itself, a run leaves the full observability triad
    next to ``out``, named after it (``X.json`` -> ``X.metrics.json``):
    the metrics snapshot (``.metrics.json``), the span-tree trace log
    (``.trace.jsonl``), an SLO health report graded over the default
    objectives (``.health.json``), and the sampling profiler's
    speedscope + folded-stack flamegraph exports (``.profile.json`` /
    ``.folded.txt``). ``out=None`` writes nothing.
    """
    from repro import api
    from repro.obs import names
    from repro.obs.health import DEFAULT_SLOS, evaluate_registry
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.profile import ProfileConfig, render_folded
    from repro.obs.trace import Tracer
    from repro.serve.batcher import BatchPolicy

    config = config if config is not None else ReplayConfig()
    if config.gateway_workers is not None:
        return _run_replay_gateway(config, out=out)
    offsets = arrival_offsets(config)
    workload = _build_workload(config)
    rng = np.random.default_rng(config.seed + 2)
    kinds = rng.choice(
        workload.classes, size=config.requests, p=workload.weights
    ).tolist()

    registry = MetricsRegistry()
    tracer = Tracer(enabled=True, keep=config.requests)
    policy = BatchPolicy(max_queue_depth=config.max_queue_depth)
    futures = []
    rejected = 0
    with api.open_engine(
        device=config.device, backend=config.backend, policy=policy,
        metrics=registry, tracer=tracer, profile=ProfileConfig(),
    ) as client:
        # prepare every class up front so session build cost (operand
        # conversion, backend pinning) is not billed to the first arrival
        for kind in workload.classes:
            client.prepare(_make_request(kind, workload))
        t0 = time.perf_counter()
        for offset, kind in zip(offsets, kinds):
            delay = t0 + offset - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            try:
                futures.append(client.submit(_make_request(kind, workload)))
            except AdmissionError:
                rejected += 1
        for f in futures:
            f.result()
        duration_s = time.perf_counter() - t0
        snapshot = client.telemetry.snapshot()
        cache_stats = client.planner.cache.stats()
        profile_report = client.profiler.report()

    health = evaluate_registry(registry, DEFAULT_SLOS)
    completed = len(futures)
    total = snapshot.total
    modelled_busy_s = float(total.get("modelled_busy_s", 0.0))
    wall = _latency_stats(registry, names.REQUEST_WALL)
    modelled = _latency_stats(registry, names.REQUEST_MODELLED)
    queue_wait = _latency_stats(registry, names.QUEUE_WAIT)
    report = {
        "schema": BENCH_SCHEMA,
        "bench": "serve-replay",
        "config": config.to_dict(),
        "results": {
            "requests": {
                "submitted": config.requests,
                "completed": completed,
                "rejected": rejected,
                "rejected_metric": _counter_total(registry, names.REJECTIONS),
            },
            "latency_s": {
                "wall": wall,
                "modelled": modelled,
                "queue_wait": queue_wait,
            },
            "throughput": {
                "offered_rps": (
                    config.requests / offsets[-1] if offsets[-1] > 0
                    else float(config.rate_rps)
                ),
                "completed_rps": completed / duration_s if duration_s else 0.0,
                # what the modelled device could sustain at 100% busy:
                # completed requests per modelled-busy second
                "saturation_rps": (
                    completed / modelled_busy_s if modelled_busy_s else 0.0
                ),
            },
            "batching": {
                "batches": int(total.get("batches", 0)),
                "mean_batch_size": float(total.get("mean_batch_size", 0.0)),
            },
            "plan_cache": {
                "hits": cache_stats["hits"],
                "misses": cache_stats["misses"],
                "hit_rate": cache_stats["hit_rate"],
            },
            "health": {
                "status": health.status,
                "objectives": len(health.results),
                "breaches": [r.spec.name for r in health.breaches],
            },
            "profile": {
                "sampled": profile_report.sampled,
                "phases": profile_report.phase_totals(),
            },
            "duration_s": duration_s,
        },
    }
    if out is not None:
        _write_artifacts(out, report, registry, tracer, health)
        profile_report.save(_side_path(out, "profile.json"))
        atomic_write_text(
            _side_path(out, "folded.txt"), render_folded(profile_report)
        )
    return report


def _write_artifacts(out, report: dict, registry, tracer, health) -> None:
    """The report plus the side artifacts both replay modes leave."""
    from repro.obs.export import write_snapshot

    atomic_write_text(
        Path(out), json.dumps(report, indent=2, sort_keys=True) + "\n"
    )
    write_snapshot(registry, _side_path(out, "metrics.json"))
    tracer.export_jsonl(_side_path(out, "trace.jsonl"))
    health.save(_side_path(out, "health.json"))


def _run_replay_gateway(
    config: ReplayConfig, *, out: str | Path | None
) -> dict:
    """Replay the same schedule through a :class:`repro.fleet.Gateway`.

    Same ``BENCH_serve.json`` shape as the direct-engine path (so
    ``repro bench compare`` gates the two against each other), with the
    per-worker rollups — telemetry totals, plan-cache hits — summed
    across the fleet and an extra ``results.gateway`` section recording
    the fleet topology and shed/retry counters. Latency stats come from
    the gateway's merged metrics snapshot, which aggregates every
    worker's histograms. The in-process sampling profiler and tracer
    live inside the workers, so the ``.profile.json`` / ``.folded.txt``
    side artifacts are not written in this mode and ``.trace.jsonl`` is
    an empty log.
    """
    from repro.fleet.gateway import FleetConfig, open_fleet
    from repro.obs import names
    from repro.obs.trace import Tracer
    from repro.serve.batcher import BatchPolicy

    offsets = arrival_offsets(config)
    workload = _build_workload(config)
    rng = np.random.default_rng(config.seed + 2)
    kinds = rng.choice(
        workload.classes, size=config.requests, p=workload.weights
    ).tolist()

    fleet_config = FleetConfig(
        workers=config.gateway_workers,
        device=config.device,
        backend=config.backend,
        policy=BatchPolicy(max_queue_depth=config.max_queue_depth),
    )
    futures = []
    rejected = 0
    with open_fleet(fleet_config) as gateway:
        for kind in workload.classes:  # priming pass (build placements)
            gateway.run(_make_request(kind, workload))
        t0 = time.perf_counter()
        for offset, kind in zip(offsets, kinds):
            delay = t0 + offset - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            try:
                futures.append(gateway.submit(_make_request(kind, workload)))
            except AdmissionError:
                rejected += 1
        gateway.flush()
        for f in futures:
            f.result(fleet_config.rpc_timeout_s)
        duration_s = time.perf_counter() - t0
        registry = gateway.metrics_snapshot()
        health = gateway.health()
        status = gateway.status()
        worker_totals = []
        cache_hits = cache_misses = 0
        for stats in gateway.worker_stats().values():
            summary = stats.get("summary", {})
            worker_totals.append(summary.get("total", {}))
            cache = summary.get("plan_cache", {})
            cache_hits += int(cache.get("hits", 0))
            cache_misses += int(cache.get("misses", 0))

    completed = len(futures)
    modelled_busy_s = float(
        sum(t.get("modelled_busy_s", 0.0) for t in worker_totals)
    )
    batches = int(sum(t.get("batches", 0) for t in worker_totals))
    batched_requests = int(sum(t.get("requests", 0) for t in worker_totals))
    cache_lookups = cache_hits + cache_misses
    wall = _latency_stats(registry, names.REQUEST_WALL)
    modelled = _latency_stats(registry, names.REQUEST_MODELLED)
    queue_wait = _latency_stats(registry, names.QUEUE_WAIT)
    report = {
        "schema": BENCH_SCHEMA,
        "bench": "serve-replay",
        "config": config.to_dict(),
        "results": {
            "requests": {
                "submitted": config.requests,
                "completed": completed,
                "rejected": rejected,
                "rejected_metric": _counter_total(registry, names.REJECTIONS),
            },
            "latency_s": {
                "wall": wall,
                "modelled": modelled,
                "queue_wait": queue_wait,
            },
            "throughput": {
                "offered_rps": (
                    config.requests / offsets[-1] if offsets[-1] > 0
                    else float(config.rate_rps)
                ),
                "completed_rps": completed / duration_s if duration_s else 0.0,
                "saturation_rps": (
                    completed / modelled_busy_s if modelled_busy_s else 0.0
                ),
            },
            "batching": {
                "batches": batches,
                "mean_batch_size": (
                    batched_requests / batches if batches else 0.0
                ),
            },
            "plan_cache": {
                "hits": cache_hits,
                "misses": cache_misses,
                "hit_rate": (
                    cache_hits / cache_lookups if cache_lookups else 0.0
                ),
            },
            "health": {
                "status": health.status,
                "objectives": len(health.results),
                "breaches": [r.spec.name for r in health.breaches],
            },
            "gateway": {
                "workers": len(status["workers"]),
                "restarts": sum(
                    w["restarts"] for w in status["workers"].values()
                ),
                "shed": _counter_total(registry, names.FLEET_SHED),
                "retries": _counter_total(registry, names.FLEET_RETRIES),
            },
            "duration_s": duration_s,
        },
    }
    if out is not None:
        _write_artifacts(out, report, registry, Tracer(enabled=False), health)
    return report


def render_replay_report(report: dict) -> str:
    """The human-readable summary ``repro bench serve --replay`` prints."""
    from repro.bench.report import render_table

    r = report["results"]
    lat = r["latency_s"]

    def ms(x: float) -> str:
        return f"{x * 1e3:.3f}"

    rows = [
        [name, stats["count"], ms(stats["mean"]), ms(stats["p50"]),
         ms(stats["p95"]), ms(stats["p99"])]
        for name, stats in (
            ("wall", lat["wall"]),
            ("modelled", lat["modelled"]),
            ("queue wait", lat["queue_wait"]),
        )
    ]
    lines = [
        render_table(
            ["latency (ms)", "n", "mean", "p50", "p95", "p99"], rows,
            title="-- traffic replay --",
        ),
        (
            f"requests: {r['requests']['completed']}/"
            f"{r['requests']['submitted']} completed, "
            f"{r['requests']['rejected']} rejected by admission"
        ),
        (
            f"throughput: {r['throughput']['offered_rps']:.1f} rps offered, "
            f"{r['throughput']['completed_rps']:.1f} rps completed, "
            f"{r['throughput']['saturation_rps']:.1f} rps at modelled "
            f"saturation"
        ),
        (
            f"batching: {r['batching']['batches']} batches, "
            f"mean size {r['batching']['mean_batch_size']:.2f}; "
            f"plan cache {r['plan_cache']['hit_rate']:.1%} hit rate"
        ),
    ]
    health = r.get("health")
    if health:  # artifacts from older runs predate the health section
        breaches = (
            f" (breaching: {', '.join(health['breaches'])})"
            if health.get("breaches") else ""
        )
        lines.append(
            f"health: {health['status']} over {health['objectives']} "
            f"objective(s){breaches}"
        )
    gateway = r.get("gateway")
    if gateway:  # fleet-routed replay (config.gateway_workers)
        lines.append(
            f"gateway: {gateway['workers']} worker(s), "
            f"{gateway['restarts']} restart(s), {gateway['shed']:.0f} shed, "
            f"{gateway['retries']:.0f} retried"
        )
    profile = r.get("profile")
    if profile:
        phases = ", ".join(
            f"{name} {t['wall_s'] * 1e3:.1f}ms/{t['count']}"
            for name, t in sorted(profile["phases"].items())
        )
        lines.append(
            f"profile: {profile['sampled']} sample(s){': ' if phases else ''}"
            f"{phases}"
        )
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# regression compare


#: (json-path into results, higher-is-better) pairs the gate checks
_GATE_METRICS: tuple[tuple[tuple[str, ...], bool], ...] = (
    (("latency_s", "wall", "p50"), False),
    (("latency_s", "wall", "p99"), False),
    (("latency_s", "modelled", "p50"), False),
    (("throughput", "completed_rps"), True),
    (("plan_cache", "hit_rate"), True),
)


def _dig(d: dict, path: tuple[str, ...]):
    for part in path:
        d = d[part]
    return d


def compare_reports(
    current: dict, baseline: dict, threshold: float = 0.25
) -> list[str]:
    """Regressions of ``current`` vs ``baseline`` (empty list = clean).

    A metric regresses when it is worse than baseline by more than
    ``threshold`` (relative). Latencies regress upward, throughput and
    hit rate regress downward.
    """
    for name, report in (("current", current), ("baseline", baseline)):
        if report.get("schema") != BENCH_SCHEMA:
            raise ConfigError(
                f"{name} report has schema {report.get('schema')!r}, "
                f"expected {BENCH_SCHEMA}"
            )
    regressions = []
    for path, higher_is_better in _GATE_METRICS:
        try:
            cur = float(_dig(current["results"], path))
            base = float(_dig(baseline["results"], path))
        except (KeyError, TypeError):
            continue  # older artifact without this metric: skip, don't fail
        if base <= 0:
            continue
        delta = (cur - base) / base
        worse = -delta if higher_is_better else delta
        if worse > threshold:
            arrow = "fell" if higher_is_better else "rose"
            regressions.append(
                f"{'.'.join(path)} {arrow} {abs(delta):.1%} "
                f"(baseline {base:.6g} -> current {cur:.6g}, "
                f"threshold {threshold:.0%})"
            )
    return regressions


def compare_main(argv: list[str] | None = None) -> int:
    """``repro bench compare CURRENT [BASELINE]`` — the regression gate.

    Warn-only by default: regressions print but exit 0 unless
    ``--strict``. A missing baseline is a clean pass (first run on a
    branch has nothing to compare against).
    """
    import argparse

    parser = argparse.ArgumentParser(
        prog="repro bench compare",
        description="compare a BENCH_serve.json against a baseline artifact",
    )
    parser.add_argument("current", help="current BENCH_serve.json")
    parser.add_argument(
        "baseline", nargs="?", default="BENCH_serve.baseline.json",
        help="baseline artifact (default: %(default)s)",
    )
    parser.add_argument(
        "--threshold", type=float, default=0.25,
        help="relative regression tolerance (default: %(default)s)",
    )
    parser.add_argument(
        "--strict", action="store_true",
        help="exit 1 on regression instead of warning",
    )
    args = parser.parse_args(argv)

    current_path, baseline_path = Path(args.current), Path(args.baseline)
    if not baseline_path.exists():
        print(f"no baseline at {baseline_path}: nothing to compare (ok)")
        return 0
    if not current_path.exists():
        print(f"current artifact {current_path} does not exist")
        return 2
    current = json.loads(current_path.read_text())
    baseline = json.loads(baseline_path.read_text())
    regressions = compare_reports(current, baseline, threshold=args.threshold)
    if not regressions:
        print(
            f"no regressions vs {baseline_path} "
            f"(threshold {args.threshold:.0%})"
        )
        return 0
    for line in regressions:
        print(f"regression: {line}")
    if args.strict:
        return 1
    print(f"{len(regressions)} regression(s) — warn-only (pass --strict to fail)")
    return 0
