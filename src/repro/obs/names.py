"""The observability contract: every standard metric, by name.

These constants are the single source of truth for what the serving
stack publishes. ``docs/observability.md`` renders this table, the
Prometheus exporter emits exactly these families, and the docs test
asserts the two never drift. Adding a metric means adding it *here*
(name + kind + help) and then publishing into it.

Conventions follow Prometheus: ``_total`` suffix on counters,
``_seconds`` on time-valued histograms, labels for the low-cardinality
dimensions. The serving families are the engine's only measurement
store — :class:`repro.serve.telemetry.Telemetry` derives every summary
from them — so they carry the labels its views project on: batch
counters by ``session``, ``backend``, ``device`` and ``plan`` (the plan
key, empty when none routed the batch), per-request histograms by
``session``, ``backend`` and ``device``, and the per-plan gauges by
``plan`` alone.
"""

from __future__ import annotations

from repro.obs.metrics import DEFAULT_TIME_BUCKETS_S, MetricsRegistry

__all__ = [
    "KERNEL_WALL_BUCKETS_S",
    "MAX_MERGED_GAUGES",
    "STANDARD_METRICS",
    "declare_standard",
]

# -- serving -----------------------------------------------------------
REQUESTS = "repro_requests_total"
BATCHES = "repro_batches_total"
LAUNCHES = "repro_launches_total"
MODELLED_BUSY = "repro_modelled_busy_seconds_total"
PLAN_PREDICTED = "repro_plan_predicted_time"
#: gauges that describe a plan, not a load: every worker serving a plan
#: key publishes the same value, so merging registries takes the max
#: (summing would double them per worker)
MAX_MERGED_GAUGES = frozenset({PLAN_PREDICTED})
REJECTIONS = "repro_rejections_total"
QUEUE_DEPTH = "repro_queue_depth"
REQUEST_WALL = "repro_request_wall_seconds"
REQUEST_MODELLED = "repro_request_modelled_seconds"
QUEUE_WAIT = "repro_queue_wait_seconds"
BATCH_SIZE = "repro_batch_size"

# -- kernels -----------------------------------------------------------
KERNEL_WALL = "repro_kernel_wall_seconds"

# -- SLO / health ------------------------------------------------------
SLO_EVALUATIONS = "repro_slo_evaluations_total"
SLO_BREACHES = "repro_slo_breaches_total"
SLO_BURN_RATE = "repro_slo_burn_rate"

# -- plan cache --------------------------------------------------------
CACHE_HITS = "repro_plan_cache_hits_total"
CACHE_MISSES = "repro_plan_cache_misses_total"
CACHE_PROMOTIONS = "repro_plan_cache_promotions_total"
CACHE_ENTRIES = "repro_plan_cache_entries"

# -- re-tuning scheduler -----------------------------------------------
RETUNE_CYCLES = "repro_retune_cycles_total"
RETUNE_TRIGGERS = "repro_retune_triggers_total"
RETUNE_PROMOTIONS = "repro_retune_promotions_total"
RETUNE_COOLDOWN = "repro_retune_cooldown_keys"

# -- fleet gateway (multi-process serving front door) ------------------
FLEET_REQUESTS = "repro_fleet_requests_total"
FLEET_SHED = "repro_fleet_shed_total"
FLEET_RETRIES = "repro_fleet_retries_total"
FLEET_RESTARTS = "repro_fleet_worker_restarts_total"
FLEET_INFLIGHT = "repro_fleet_inflight"
FLEET_WORKERS = "repro_fleet_workers"
FLEET_HEARTBEAT_AGE = "repro_fleet_heartbeat_age"
FLEET_RPC_WALL = "repro_fleet_rpc_wall_seconds"

#: batch sizes are small integers; powers of two up to the default
#: ``BatchPolicy.max_batch_size`` neighbourhood
_BATCH_BUCKETS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0)

#: kernel-wall buckets start at 10 ns, not 1 µs: the fastpath backends
#: execute small kernels in hundreds of nanoseconds, which would all
#: collapse into the lowest ``DEFAULT_TIME_BUCKETS_S`` edge and make
#: p50 interpolation meaningless. This override is KERNEL_WALL-only —
#: request-level latencies keep the default layout.
KERNEL_WALL_BUCKETS_S: tuple[float, ...] = tuple(1e-8 * 4**i for i in range(15))

#: ``(name, kind, help, buckets)`` for every metric the stack publishes
STANDARD_METRICS: tuple[tuple[str, str, str, tuple[float, ...] | None], ...] = (
    (REQUESTS, "counter",
     "Requests served, by session, backend, device and plan.", None),
    (BATCHES, "counter",
     "Coalesced batch executions, by session, backend, device and plan.",
     None),
    (LAUNCHES, "counter",
     "Modelled kernel launches, by session, backend, device and plan.",
     None),
    (MODELLED_BUSY, "counter",
     "Modelled device busy time of the served batches, by session, "
     "backend, device and plan.", None),
    (PLAN_PREDICTED, "gauge",
     "The serving plan's predicted per-launch time in seconds, by plan.",
     None),
    (REJECTIONS, "counter",
     "Requests shed by admission control, by session.", None),
    (QUEUE_DEPTH, "gauge",
     "Requests waiting in the micro-batcher at last enqueue, by session.",
     None),
    (REQUEST_WALL, "histogram",
     "Per-request wall latency: queue wait + batch execution, by "
     "session, backend and device.", DEFAULT_TIME_BUCKETS_S),
    (REQUEST_MODELLED, "histogram",
     "Per-request modelled kernel latency (calibrated cost model), by "
     "session, backend and device.", DEFAULT_TIME_BUCKETS_S),
    (QUEUE_WAIT, "histogram",
     "Time a request spent queued before its batch dispatched, by "
     "session, backend and device.", DEFAULT_TIME_BUCKETS_S),
    (BATCH_SIZE, "histogram",
     "Requests coalesced per batch execution, by session, backend and "
     "device.", _BATCH_BUCKETS),
    (KERNEL_WALL, "histogram",
     "Measured wall time of one backend kernel execution, by op and "
     "backend.", KERNEL_WALL_BUCKETS_S),
    (SLO_EVALUATIONS, "counter",
     "SLO health evaluations performed, by objective.", None),
    (SLO_BREACHES, "counter",
     "Health evaluations that found an objective in breach, by "
     "objective.", None),
    (SLO_BURN_RATE, "gauge",
     "Error-budget burn rate at the last health evaluation, by "
     "objective (1.0 = burning exactly the budget).", None),
    (CACHE_HITS, "counter",
     "Plan-cache lookups answered from the cache.", None),
    (CACHE_MISSES, "counter",
     "Plan-cache lookups that fell through to the planner.", None),
    (CACHE_PROMOTIONS, "counter",
     "Plans promoted into the live cache (warm start or re-tune).", None),
    (CACHE_ENTRIES, "gauge",
     "Plans currently resident in the cache.", None),
    (RETUNE_CYCLES, "counter",
     "Re-tuning scheduler observe/decide cycles.", None),
    (RETUNE_TRIGGERS, "counter",
     "Plan keys whose drift triggered a re-sweep.", None),
    (RETUNE_PROMOTIONS, "counter",
     "Plan keys whose re-sweep promoted a changed plan.", None),
    (RETUNE_COOLDOWN, "gauge",
     "Plan keys currently held in re-tune cooldown.", None),
    (FLEET_REQUESTS, "counter",
     "Requests the fleet gateway routed to a worker, by worker.", None),
    (FLEET_SHED, "counter",
     "Requests the gateway shed at a worker's in-flight cap, by "
     "worker.", None),
    (FLEET_RETRIES, "counter",
     "Requests re-sent after being lost to a dying worker, by worker.",
     None),
    (FLEET_RESTARTS, "counter",
     "Worker processes respawned after a crash, by worker.", None),
    (FLEET_INFLIGHT, "gauge",
     "Requests currently in flight to a worker, by worker.", None),
    (FLEET_WORKERS, "gauge",
     "Worker processes currently alive in the pool.", None),
    (FLEET_HEARTBEAT_AGE, "gauge",
     "Seconds since a worker's last heartbeat, by worker.", None),
    (FLEET_RPC_WALL, "histogram",
     "Gateway-observed round-trip wall time of one routed request.",
     DEFAULT_TIME_BUCKETS_S),
)


def declare_standard(registry: MetricsRegistry) -> MetricsRegistry:
    """Pre-register every standard family (empty until published into).

    The engine calls this on its registry at construction so ``repro
    obs export`` names every documented metric even on a freshly
    started — or idle — engine.
    """
    for name, kind, help_line, buckets in STANDARD_METRICS:
        registry.declare(name, kind, help_line, buckets=buckets)
    return registry
