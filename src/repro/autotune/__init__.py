"""repro.autotune — offline autotuning sweeps that ship warm plan caches.

Magicube's reported wins come from per-(topology, precision, device)
tuning — Table IV picks different L/R pairs on different GPUs — but a
cold serving process pays the planner search for every new request
class. This subsystem moves that search **offline** and makes it
reproducible:

- :mod:`~repro.autotune.space` enumerates the sweep grid from the live
  :class:`~repro.runtime.BackendRegistry` (plannable backends x
  modelled devices x a topology/precision grid), deterministically.
- :mod:`~repro.autotune.runner` measures each point (warmup + repeats,
  median cold-search latency) under a trial/time :class:`SweepBudget`,
  with cost-model-guided pruning of backends that keep losing.
- :mod:`~repro.autotune.artifact` ships the result: a schema-v2
  :class:`~repro.serve.cache.PlanCache` JSON plus a provenance
  manifest (sweep config, ``git describe``, backend/device capability
  fingerprints) with drift detection against the registry it is later
  loaded into.

Serving picks the artifact up through ``Engine(warm_start=...)`` /
``ExecutionPlanner.warm_start(...)``; ``repro autotune`` drives sweeps
from the command line, and ``repro bench autotune`` reports the
cold-vs-warm win.

The loop also runs the *other* way — serve feeding autotune:

- :mod:`~repro.autotune.policy` decides, from the per-plan traffic in
  a metrics registry (:func:`~repro.serve.telemetry.plan_traffic`),
  which plan keys are worth re-sweeping (hot traffic, cold-search
  misses, latency regressions, fingerprint drift) and synthesizes
  *targeted* sweep configs covering exactly those keys.
- :mod:`~repro.autotune.scheduler` runs that loop in the background of
  a serving engine (``repro.open_engine(retune=RetunePolicy(...))``),
  promotes the re-tuned plans into the live plan cache atomically, and
  ships each promotion as an artifact whose manifest names the
  triggering traffic. ``repro autotune watch`` runs the same cycle
  over a metrics file another process exported, and ``repro bench
  retune`` demonstrates the loop closing on a shifting workload.

Quick start::

    from repro.autotune import SweepConfig, run_sweep, write_artifact

    report = run_sweep(SweepConfig(devices=("A100",)))
    write_artifact("plans.json", report.cache,
                   ArtifactManifest.for_report(report))

    from repro.serve import Engine
    engine = Engine(device="A100", warm_start="plans.json")
"""

from repro.autotune.artifact import (
    ArtifactManifest,
    backend_fingerprint,
    check_drift,
    device_fingerprint,
    load_artifact,
    manifest_path,
    warm_start_cache,
    write_artifact,
)
from repro.autotune.policy import (
    RetunePolicy,
    RetuneTrigger,
    TargetedSweep,
    synthesize,
)
from repro.autotune.runner import Measurement, SweepBudget, SweepReport, run_sweep
from repro.autotune.scheduler import RetuneCycle, RetuneScheduler, RetuneStatus
from repro.autotune.space import SweepConfig, SweepPoint, enumerate_space

__all__ = [
    "ArtifactManifest",
    "Measurement",
    "RetuneCycle",
    "RetunePolicy",
    "RetuneScheduler",
    "RetuneStatus",
    "RetuneTrigger",
    "SweepBudget",
    "SweepConfig",
    "SweepPoint",
    "SweepReport",
    "TargetedSweep",
    "backend_fingerprint",
    "check_drift",
    "device_fingerprint",
    "enumerate_space",
    "load_artifact",
    "manifest_path",
    "run_sweep",
    "synthesize",
    "warm_start_cache",
    "write_artifact",
]
