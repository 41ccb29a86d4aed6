"""Traffic-replay load generator: the serving stack under open-loop load.

This is the bench that finally exercises the *whole* runtime path the
way a deployment does — typed requests arriving on a clock, admission
control pushing back, the micro-batcher coalescing, the planner
resolving, and the :mod:`repro.obs` metrics registry keeping score —
and writes the numbers down as a schema-versioned
``BENCH_serve.json`` artifact, with the full observability triad next
to it: the raw metrics snapshot, the span-tree trace log, and an SLO
health report (``BENCH_serve.health.json``, graded over
:data:`repro.obs.health.DEFAULT_SLOS`).

Four arrival processes are built in (all seeded, all deterministic in
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

    repro bench serve --replay --requests 200 --arrival bursty
    repro bench compare BENCH_serve.json baseline.json
"""

from __future__ import annotations

import json
import time
from contextlib import closing
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from repro.errors import AdmissionError, ConfigError
from repro.ioutil import atomic_write_text
from repro.runtime import DEFAULT_BACKEND

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.metrics import MetricsRegistry

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
    ``artifact="metrics.json"`` (likewise ``trace.jsonl`` and
    ``health.json``)."""
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


def _latency_stats(doc: dict, name: str) -> dict:
    from repro.obs.metrics import merge_histograms, select

    h = merge_histograms(select(doc, name))
    if h is None:
        return {"count": 0, "mean": 0.0, "p50": 0.0, "p95": 0.0, "p99": 0.0}
    return {
        "count": h.count,
        "mean": h.mean,
        "p50": h.quantile(0.50),
        "p95": h.quantile(0.95),
        "p99": h.quantile(0.99),
    }


def _counter_total(doc: dict, name: str) -> float:
    from repro.obs.metrics import select

    return sum(float(s["value"]) for s in select(doc, name))


def _results(
    config: ReplayConfig, offsets: np.ndarray, registry: "MetricsRegistry",
    health, *, completed: int, rejected: int, duration_s: float,
) -> dict:
    """The ``results`` section both replay modes share, read off one
    registry dump (the engine's own, or the fleet's merged one)."""
    from repro.obs import names

    doc = registry.to_dict()
    modelled_busy_s = _counter_total(doc, names.MODELLED_BUSY)
    batches = int(_counter_total(doc, names.BATCHES))
    batched_requests = int(_counter_total(doc, names.REQUESTS))
    cache_hits = int(_counter_total(doc, names.CACHE_HITS))
    cache_misses = int(_counter_total(doc, names.CACHE_MISSES))
    cache_lookups = cache_hits + cache_misses
    return {
        "requests": {
            "submitted": config.requests,
            "completed": completed,
            "rejected": rejected,
            "rejected_metric": _counter_total(doc, names.REJECTIONS),
        },
        "latency_s": {
            "wall": _latency_stats(doc, names.REQUEST_WALL),
            "modelled": _latency_stats(doc, names.REQUEST_MODELLED),
            "queue_wait": _latency_stats(doc, names.QUEUE_WAIT),
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
            "batches": batches,
            "mean_batch_size": batched_requests / batches if batches else 0.0,
        },
        "plan_cache": {
            "hits": cache_hits,
            "misses": cache_misses,
            "hit_rate": cache_hits / cache_lookups if cache_lookups else 0.0,
        },
        "health": {
            "status": health.status,
            "objectives": len(health.results),
            "breaches": [r.spec.name for r in health.breaches],
        },
        "duration_s": duration_s,
    }


class _EngineDoor:
    """Direct mode's front door: one traced in-process engine on a
    fresh registry."""

    def __init__(self, config: ReplayConfig) -> None:
        from repro import api
        from repro.obs.metrics import MetricsRegistry
        from repro.obs.trace import Tracer
        from repro.serve.batcher import BatchPolicy

        self.registry = MetricsRegistry()
        self.tracer = Tracer(enabled=True, keep=config.requests)
        self._client = api.open_engine(
            device=config.device, backend=config.backend,
            policy=BatchPolicy(max_queue_depth=config.max_queue_depth),
            metrics=self.registry, tracer=self.tracer,
        )
        # priming prepares each class, so session build cost (operand
        # conversion, backend pinning) is not billed to the first arrival
        self.prime = self._client.prepare
        self.submit = self._client.submit

    def drain(self, futures: list) -> None:
        for f in futures:
            f.result()

    def snapshot(self) -> tuple:
        """``(registry, tracer, health, extra results sections)``."""
        from repro.obs.health import DEFAULT_SLOS, evaluate_registry

        health = evaluate_registry(self.registry, DEFAULT_SLOS)
        return self.registry, self.tracer, health, {}

    def close(self) -> None:
        self._client.close()


class _GatewayDoor:
    """Gateway mode's front door: a :class:`repro.fleet.Gateway`.

    Every number is read off the gateway's merged metrics snapshot,
    which aggregates every worker's registry, plus a
    ``results.gateway`` section recording the fleet topology and
    shed/retry counters. The tracer lives inside the workers, so
    ``.trace.jsonl`` is an empty log in this mode.
    """

    def __init__(self, config: ReplayConfig) -> None:
        from repro.fleet.gateway import FleetConfig, open_fleet
        from repro.serve.batcher import BatchPolicy

        self._fleet_config = FleetConfig(
            workers=config.gateway_workers,
            device=config.device,
            backend=config.backend,
            policy=BatchPolicy(max_queue_depth=config.max_queue_depth),
        )
        self._gateway = open_fleet(self._fleet_config)
        # priming runs each class once, so placements are built
        self.prime = self._gateway.run
        self.submit = self._gateway.submit

    def drain(self, futures: list) -> None:
        self._gateway.flush()
        for f in futures:
            f.result(self._fleet_config.rpc_timeout_s)

    def snapshot(self) -> tuple:
        """``(registry, tracer, health, extra results sections)``."""
        from repro.obs import names
        from repro.obs.trace import Tracer

        registry = self._gateway.metrics_snapshot()
        health = self._gateway.health()
        workers = self._gateway.status()["workers"]
        doc = registry.to_dict()
        gateway = {
            "workers": len(workers),
            "restarts": sum(w["restarts"] for w in workers.values()),
            "shed": _counter_total(doc, names.FLEET_SHED),
            "retries": _counter_total(doc, names.FLEET_RETRIES),
        }
        return registry, Tracer(enabled=False), health, {"gateway": gateway}

    def close(self) -> None:
        self._gateway.close()


def run_replay(
    config: ReplayConfig | None = None, *, out: str | Path | None = DEFAULT_OUT
) -> dict:
    """Replay one arrival schedule against a live engine — or, with
    ``config.gateway_workers``, a worker fleet — and return (and
    optionally write to ``out``) the ``BENCH_serve.json`` report dict.

    Both modes write the same report shape, so ``repro bench compare``
    gates them against each other; a fleet run adds a
    ``results.gateway`` section. Beyond the report itself, a run leaves
    its observability artifacts next to ``out``, named after it
    (``X.json`` -> ``X.metrics.json``): the metrics snapshot
    (``.metrics.json``), the span-tree trace log (``.trace.jsonl``) and
    an SLO health report graded over the default objectives
    (``.health.json``). ``out=None`` writes nothing.
    """
    config = config if config is not None else ReplayConfig()
    offsets = arrival_offsets(config)
    workload = _build_workload(config)
    rng = np.random.default_rng(config.seed + 2)
    kinds = rng.choice(
        workload.classes, size=config.requests, p=workload.weights
    ).tolist()

    door_type = _EngineDoor if config.gateway_workers is None else _GatewayDoor
    futures = []
    rejected = 0
    with closing(door_type(config)) as door:
        for kind in workload.classes:
            door.prime(_make_request(kind, workload))
        t0 = time.perf_counter()
        for offset, kind in zip(offsets, kinds):
            delay = t0 + offset - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            try:
                futures.append(door.submit(_make_request(kind, workload)))
            except AdmissionError:
                rejected += 1
        door.drain(futures)
        duration_s = time.perf_counter() - t0
        registry, tracer, health, sections = door.snapshot()

    results = _results(
        config, offsets, registry, health, completed=len(futures),
        rejected=rejected, duration_s=duration_s,
    )
    results.update(sections)
    report = {
        "schema": BENCH_SCHEMA,
        "bench": "serve-replay",
        "config": config.to_dict(),
        "results": results,
    }
    if out is not None:
        _write_artifacts(out, report, registry, tracer, health)
    return report


def _write_artifacts(out, report: dict, registry, tracer, health) -> None:
    """The report plus its side artifacts."""
    from repro.obs.export import write_snapshot

    atomic_write_text(
        Path(out), json.dumps(report, indent=2, sort_keys=True) + "\n"
    )
    write_snapshot(registry, _side_path(out, "metrics.json"))
    tracer.export_jsonl(_side_path(out, "trace.jsonl"))
    health.save(_side_path(out, "health.json"))


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
