"""repro.serve — batched inference serving on top of the Magicube kernels.

The serving layer turns the one-shot kernel API into a production-style
engine:

- :class:`~repro.serve.planner.ExecutionPlanner` searches the Table-IV
  precision pairs, SR-BCRS strides and kernel tile knobs against the
  calibrated cost model and memoizes the winner per (op, shape,
  sparsity, objective) key in a JSON-persistable
  :class:`~repro.serve.cache.PlanCache`.
- :class:`~repro.serve.engine.Engine` owns prepared
  :class:`~repro.serve.engine.Session` objects — one class for every
  request kind — that convert operands to SR-BCRS once and dispatch SpMM,
  SDDMM, attention and transformer requests through cached plans.
- :class:`~repro.serve.batcher.MicroBatcher` coalesces same-shape
  requests into one batched kernel launch under a max-batch-size /
  max-wait policy (plus optional queue-depth / latency-budget
  admission control raising :class:`~repro.errors.AdmissionError`),
  executing concurrently on a thread pool.
- :class:`~repro.serve.telemetry.Telemetry` is the read-only view over
  the engine's metrics registry: p50/p95/p99 modelled latency,
  throughput, batch occupancy and admission rejections, per session
  and per ``(backend, device)``;
  :func:`~repro.serve.telemetry.plan_traffic` projects the same
  registry per plan key for the :mod:`repro.autotune` re-tuning
  scheduler.

``Engine(warm_start="plans.json")`` preloads a shipped
:mod:`repro.autotune` artifact so swept request classes hit the plan
cache on first contact.

Quick start (the typed v1 surface — see :mod:`repro.api`)::

    import repro
    from repro.api import SpmmRequest

    with repro.open_engine() as client:
        future = client.submit(SpmmRequest(lhs=weights, rhs=activations,
                                           session="ffn"))
        result = future.result()
        result.output, result.plan.precision, result.time_s

``repro serve --demo`` (or ``python -m repro.serve --demo``) runs a
self-contained serving demo.
"""

from repro.serve.batcher import BatchPolicy, MicroBatcher
from repro.serve.cache import PlanCache
from repro.serve.engine import Engine, Session
from repro.serve.planner import ExecutionPlanner, Objective, Plan, PlanKey
from repro.serve.telemetry import Telemetry

__all__ = [
    "BatchPolicy",
    "Engine",
    "ExecutionPlanner",
    "MicroBatcher",
    "Objective",
    "Plan",
    "PlanCache",
    "PlanKey",
    "Session",
    "Telemetry",
]
