"""The fleet front door: Client-shaped routing over a worker pool.

:class:`Gateway` exposes the same verb surface as
:class:`repro.api.Client` — ``run``, and ``submit`` returning a
:class:`~concurrent.futures.Future`, for every typed request kind — but
executes nothing itself: every request class is *placed* on one worker of a
:class:`~repro.fleet.pool.WorkerPool` by the consistent-hash
:class:`~repro.fleet.placement.PlacementRing` and shipped over that
worker's pipe. Placement is by session name (gateway-assigned for
unnamed requests), so one session's traffic always lands on one
worker, where the worker's micro-batcher coalesces it exactly as the
single-process engine would.

Failure model:

- a worker's pipe reaching EOF (or its process found dead by the
  monitor) marks the worker down; the slot is respawned in place —
  the ring never changes shape on a crash — and every request that was
  in flight to it is **retried exactly once** (on the fresh process,
  or routed around the slot if its restart budget is spent). A request
  lost twice resolves to :class:`~repro.errors.WorkerCrashError`. A
  control call (prepare / flush / stats) lost with its worker is
  re-issued once, only after the slot carries a fresh pipe.
- a worker past its restart budget leaves the live set; ring lookups
  exclude it, which migrates its sessions to their next ring point —
  the minimal-movement rebalance.
- each worker has an in-flight cap (``FleetConfig.max_inflight``);
  beyond it the gateway sheds with the same typed
  :class:`~repro.errors.AdmissionError` the in-process batcher uses.

The gateway publishes the ``repro_fleet_*`` metric families into its
own registry and aggregates the workers' registries on demand:
:meth:`Gateway.metrics_snapshot` merges every worker's serving /
cache / retune families (sum counters and load gauges, max the
per-plan gauges, add histogram buckets) with the gateway's fleet
families into one exportable :class:`~repro.obs.metrics.MetricsRegistry`
— the file ``repro fleet serve --metrics-out`` writes and ``repro
autotune watch`` re-tunes from. :data:`FLEET_SLOS` grades that merged
view; :func:`fleet_retune_policy` pushes the same load-shed /
queue-pressure objectives down into each worker's
:class:`~repro.autotune.RetunePolicy`, closing the loop between fleet
saturation and plan re-tuning (the ``load-shed`` trigger in
:func:`repro.autotune.policy.evaluate_traffic`).
"""

from __future__ import annotations

import itertools
import threading
import time
from concurrent.futures import Future
from concurrent.futures import TimeoutError as _FutureTimeout
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

import repro.errors as _errors
from repro.api.requests import Request, Response, check_operand, class_key
from repro.errors import (
    AdmissionError,
    ConfigError,
    EngineClosedError,
    FleetError,
    WorkerCrashError,
)
from repro.fleet.pack import FleetPack
from repro.fleet.placement import PlacementRing
from repro.fleet.pool import WorkerPool
from repro.fleet.worker import DEFAULT_HEARTBEAT_S, WorkerSpec
from repro.obs import names
from repro.obs.health import DEFAULT_SLOS, SloSpec
from repro.obs.metrics import MetricsRegistry, merge_histograms
from repro.obs.names import STANDARD_METRICS

if TYPE_CHECKING:  # pragma: no cover - typing only
    from pathlib import Path

    from repro.autotune.policy import RetunePolicy
    from repro.obs.health import HealthReport
    from repro.serve.batcher import BatchPolicy

__all__ = [
    "FLEET_SLOS",
    "FleetConfig",
    "Gateway",
    "fleet_retune_policy",
    "merge_metric_docs",
    "open_fleet",
]

#: objectives ``Gateway.health`` grades when none are passed: the
#: single-engine defaults over the merged worker registries, plus the
#: gateway's own shed-rate and in-flight saturation signals
FLEET_SLOS: tuple[SloSpec, ...] = DEFAULT_SLOS + (
    SloSpec(name="fleet-shed-rate", kind="rejection_rate",
            objective=0.05, metric=names.FLEET_SHED),
    SloSpec(name="fleet-inflight-saturation", kind="queue_depth",
            objective=48.0, metric=names.FLEET_INFLIGHT),
)


def fleet_retune_policy(policy: "RetunePolicy | None" = None) -> "RetunePolicy":
    """A worker :class:`~repro.autotune.RetunePolicy` that reacts to
    fleet pressure.

    Extends ``policy`` (default: a fresh policy) with worker-local
    queue-depth and rejection-rate objectives, so a worker drowning in
    its share of fleet traffic raises the ``load-shed`` re-tune
    trigger and re-sweeps the plans carrying that traffic. Objectives
    the policy already declares (by name) are kept as-is.
    """
    from repro.autotune.policy import RetunePolicy

    base = policy if policy is not None else RetunePolicy()
    pressure = (
        SloSpec(name="fleet-queue-pressure", kind="queue_depth",
                objective=32.0),
        SloSpec(name="fleet-shed-pressure", kind="rejection_rate",
                objective=0.05),
    )
    present = {s.name for s in base.slos}
    extra = tuple(s for s in pressure if s.name not in present)
    return replace(base, slos=base.slos + extra, retune_on_load_shed=True)


def merge_metric_docs(docs: "list[dict]") -> dict:
    """Merge registry :meth:`~repro.obs.metrics.MetricsRegistry.to_dict`
    snapshots into one: counters and gauges sum per label set (the
    per-plan gauges in :data:`~repro.obs.names.MAX_MERGED_GAUGES` take
    the max), histogram samples fold through
    :func:`~repro.obs.metrics.merge_histograms`. Families keep the
    first snapshot's kind and help (every worker declares the same
    standard contract)."""
    families: dict = {}
    for doc in docs:
        for name, family in doc.items():
            target = families.setdefault(name, {
                "kind": family.get("kind"),
                "help": family.get("help", ""),
                "samples": {},
            })
            for sample in family.get("samples", ()):
                labels = sample.get("labels", {})
                target["samples"].setdefault(
                    tuple(sorted(labels.items())), []
                ).append(sample)
    merged: dict = {}
    for name, family in families.items():
        combine = max if name in names.MAX_MERGED_GAUGES else sum
        samples = []
        for key, group in family["samples"].items():
            if "value" in group[0]:
                state = {"value": combine(float(s["value"]) for s in group)}
            else:
                state = merge_histograms(group).state()
            samples.append({"labels": dict(key), **state})
        merged[name] = {**family, "samples": samples}
    return merged


@dataclass(frozen=True)
class FleetConfig:
    """One place to configure a fleet deployment.

    ``pack`` points at a :class:`~repro.fleet.pack.FleetPack` directory
    every worker warm-starts from (verified before the first spawn);
    ``warm_start`` appends loose plan-cache artifacts. ``policy`` /
    ``retune`` / ``backend`` / ``device`` forward to every worker's
    :func:`repro.open_engine`. ``max_inflight`` is the per-worker
    shed threshold at the gateway, ``max_restarts`` the per-slot
    respawn budget. A request lost to a dying worker is retried once.
    """

    workers: int = 2
    device: str = "A100"
    backend: str | None = None
    policy: "BatchPolicy | None" = None
    retune: "RetunePolicy | None" = None
    pack: "str | Path | None" = None
    warm_start: tuple = ()
    max_inflight: int = 32
    max_restarts: int = 3
    heartbeat_s: float = DEFAULT_HEARTBEAT_S
    rpc_timeout_s: float = 60.0

    def __post_init__(self) -> None:
        if self.max_inflight < 1:
            raise ConfigError(f"max_inflight must be >= 1, got {self.max_inflight}")
        if self.rpc_timeout_s <= 0:
            raise ConfigError("rpc_timeout_s must be > 0")


@dataclass
class _Pending:
    """One message awaiting its reply from a worker."""

    worker: str
    kind: str                  # "run" | "prepare" | "flush" | "stats" | ...
    message: dict
    future: Future
    session: str = ""
    attempts: int = 1
    sent_at: float = 0.0


class Gateway:
    """The sharded serving front door. See the module docstring."""

    def __init__(self, config: FleetConfig | None = None, **overrides) -> None:
        cfg = config if config is not None else FleetConfig()
        if overrides:
            cfg = replace(cfg, **overrides)
        self.config = cfg

        self.pack: FleetPack | None = None
        warm = [str(p) for p in cfg.warm_start]
        if cfg.pack is not None:
            self.pack = FleetPack.load(cfg.pack)
            problems = self.pack.verify()
            if problems:
                raise FleetError(
                    "refusing to boot the fleet from a damaged pack: "
                    + "; ".join(problems)
                )
            warm = [str(p) for p in self.pack.plan_paths()] + warm

        spec = WorkerSpec(
            name="w", device=cfg.device, backend=cfg.backend,
            policy=cfg.policy, retune=cfg.retune,
            warm_start=tuple(warm), heartbeat_s=cfg.heartbeat_s,
        )
        self.pool = WorkerPool(cfg.workers, spec, max_restarts=cfg.max_restarts)
        self.ring = PlacementRing(self.pool.names)

        # the gateway's own registry carries only the fleet families;
        # serving/cache/retune families live in the workers and are
        # merged on demand — publishing them here too would double-count
        self.metrics = MetricsRegistry()
        for name, kind, help_line, buckets in STANDARD_METRICS:
            if name.startswith("repro_fleet_"):
                self.metrics.declare(name, kind, help_line, buckets=buckets)

        self._lock = threading.RLock()
        self._ids = itertools.count(1)
        self._pending: dict[int, _Pending] = {}
        self._inflight = {n: 0 for n in self.pool.names}
        self._prepared: dict[str, set[str]] = {n: set() for n in self.pool.names}
        self._send_locks = {n: threading.Lock() for n in self.pool.names}
        self._sessions: dict[object, str] = {}      # routing key -> name
        self._prepare_requests: dict[str, Request] = {}
        self._retained: dict[str, object] = {}      # name -> operand
        self._session_counter = 0
        self._beat: dict[str, dict] = {}
        self._last_beat: dict[str, float] = {}
        self._dead: set[str] = set()
        self._respawning: set[str] = set()
        self._closed = False

        self.pool.start()
        now = time.time()
        for name in self.pool.names:
            self._last_beat[name] = now
            self._start_receiver(name)
        self.metrics.gauge(names.FLEET_WORKERS).set(len(self.pool))
        self._monitor = threading.Thread(
            target=self._monitor_loop, name="fleet-monitor", daemon=True
        )
        self._monitor.start()

    # -- receive side ----------------------------------------------------
    def _start_receiver(self, name: str) -> None:
        conn = self.pool.handle(name).conn
        thread = threading.Thread(
            target=self._receive_loop, args=(name, conn),
            name=f"fleet-recv-{name}", daemon=True,
        )
        thread.start()

    def _receive_loop(self, name: str, conn) -> None:
        while True:
            try:
                msg = conn.recv()
            except (EOFError, OSError):
                break
            except TypeError:
                # conn.close() on another thread nulls the handle while
                # recv() is blocked on it; same meaning as EOF
                break
            beat = msg.get("heartbeat")
            if beat is not None:
                with self._lock:
                    self._beat[name] = beat
                    self._last_beat[name] = time.time()
                continue
            self._resolve(name, msg)
        # EOF: stale pipe after a respawn is expected; a live slot's
        # pipe dying is a crash
        if conn is self.pool.handle(name).conn and not self._closed:
            self._worker_down(name)

    def _resolve(self, name: str, msg: dict) -> None:
        with self._lock:
            pending = self._pending.pop(msg.get("id"), None)
            if pending is not None and pending.kind == "run":
                self._inflight[pending.worker] -= 1
                self.metrics.gauge(
                    names.FLEET_INFLIGHT, {"worker": pending.worker}
                ).set(self._inflight[pending.worker])
        if pending is None:
            return  # reply for a request already failed over
        if msg.get("ok"):
            if pending.kind == "run":
                self.metrics.histogram(names.FLEET_RPC_WALL).observe(
                    time.monotonic() - pending.sent_at
                )
            pending.future.set_result(msg.get("result"))
        else:
            error = msg.get("error") or {}
            cls = getattr(_errors, error.get("type", ""), FleetError)
            if not (isinstance(cls, type) and issubclass(cls, BaseException)):
                cls = FleetError
            pending.future.set_exception(cls(error.get("message", "worker error")))

    # -- liveness / failover ---------------------------------------------
    def _monitor_loop(self) -> None:
        interval = max(self.config.heartbeat_s, 0.05)
        while not self._closed:
            time.sleep(interval)
            if self._closed:
                return
            now = time.time()
            for name in self.pool.names:
                with self._lock:
                    if name in self._dead or name in self._respawning:
                        continue
                    age = now - self._last_beat.get(name, now)
                self.metrics.gauge(
                    names.FLEET_HEARTBEAT_AGE, {"worker": name}
                ).set(age)
                if not self.pool.handle(name).alive():
                    self._worker_down(name)

    def _worker_down(self, name: str) -> None:
        """One worker died: respawn its slot and fail over its traffic."""
        with self._lock:
            if self._closed or name in self._dead or name in self._respawning:
                return
            self._respawning.add(name)
            lost = [
                p for p in self._pending.values() if p.worker == name
            ]
            for p in lost:
                self._pending.pop(p.message["id"], None)
            self._inflight[name] = 0
            self._prepared[name] = set()
            self.metrics.gauge(names.FLEET_INFLIGHT, {"worker": name}).set(0)
        try:
            self.pool.respawn(name)
            self.metrics.counter(
                names.FLEET_RESTARTS, {"worker": name}
            ).inc()
            with self._lock:
                self._last_beat[name] = time.time()
            self._start_receiver(name)
        except FleetError:
            # restart budget spent: take the slot out of placement —
            # its sessions move to their next ring point
            with self._lock:
                self._dead.add(name)
        finally:
            with self._lock:
                self._respawning.discard(name)
            self.metrics.gauge(names.FLEET_WORKERS).set(
                len(self.pool) - len(self._dead)
            )
        for p in lost:
            if p.kind != "run":
                p.future.set_exception(WorkerCrashError(
                    f"worker {name!r} died during a {p.kind!r} call"
                ))
            elif p.attempts >= 2:
                p.future.set_exception(WorkerCrashError(
                    f"request to session {p.session!r} lost with worker "
                    f"{name!r} (attempt {p.attempts}); not retrying"
                ))
            else:
                try:
                    self._retry(p, died=name)
                except BaseException as exc:
                    p.future.set_exception(exc)

    def _await_ready(self, worker: str, dead_conn=None) -> None:
        """Wait out a respawn-in-progress window for one slot.

        ``dead_conn`` is the pipe the caller just watched break: the
        slot only counts as ready once its handle carries a *different*
        connection, so a retry can never land on the stale pipe before
        the monitor has even noticed the death.
        """
        deadline = time.monotonic() + self.config.rpc_timeout_s
        while time.monotonic() < deadline:
            with self._lock:
                if worker in self._dead:
                    raise FleetError(f"worker {worker!r} is out of service")
                respawning = worker in self._respawning
            handle = self.pool.handle(worker)
            if (
                not respawning
                and handle.conn is not None
                and handle.conn is not dead_conn
                and handle.alive()
            ):
                return
            time.sleep(0.02)
        raise FleetError(
            f"worker {worker!r} did not come back within "
            f"{self.config.rpc_timeout_s:.1f}s"
        )

    def _retry(self, pending: _Pending, died: str, dead_conn=None) -> None:
        target = self.ring.lookup(pending.session, exclude=self._dead)
        self._await_ready(target, dead_conn if target == died else None)
        self._ensure_prepared(target, pending.session)
        message = dict(pending.message)
        with self._lock:
            mid = next(self._ids)
            message["id"] = mid
            self._pending[mid] = replace(
                pending, worker=target, message=message,
                attempts=pending.attempts + 1, sent_at=time.monotonic(),
            )
            self._inflight[target] += 1
            self.metrics.gauge(
                names.FLEET_INFLIGHT, {"worker": target}
            ).set(self._inflight[target])
        self.metrics.counter(names.FLEET_RETRIES, {"worker": died}).inc()
        self._send(target, message)

    # -- send side -------------------------------------------------------
    def _send(self, worker: str, message: dict):
        """Ship ``message`` to ``worker``; return the connection it went
        out on (``None`` mid-respawn)."""
        conn = self.pool.handle(worker).conn
        if conn is None:
            # mid-respawn; treat like a pipe that broke under us
            self._send_failed(worker, message, None)
            return None
        try:
            with self._send_locks[worker]:
                conn.send(message)
        except (BrokenPipeError, OSError):
            # the worker is dying under us; fail this message over now
            # (the receiver's EOF handles everything sent before it)
            self._send_failed(worker, message, conn)
        return conn

    def _send_failed(self, worker: str, message: dict, dead_conn) -> None:
        with self._lock:
            pending = self._pending.pop(message.get("id"), None)
            if pending is not None and pending.kind == "run":
                self._inflight[worker] = max(0, self._inflight[worker] - 1)
                self.metrics.gauge(
                    names.FLEET_INFLIGHT, {"worker": worker}
                ).set(self._inflight[worker])
        if pending is None:
            return  # the worker-down sweep already owns it
        if pending.kind != "run":
            pending.future.set_exception(WorkerCrashError(
                f"worker {worker!r} pipe closed during a "
                f"{pending.kind!r} call"
            ))
        elif pending.attempts < 2:
            try:
                self._retry(pending, died=worker, dead_conn=dead_conn)
            except BaseException as exc:
                pending.future.set_exception(exc)
        else:
            pending.future.set_exception(WorkerCrashError(
                f"request to session {pending.session!r} lost with "
                f"worker {worker!r} (attempt {pending.attempts}); "
                f"not retrying"
            ))

    def _call(self, worker: str, kind: str, message: dict,
              timeout: float | None = None, _retried: bool = False) -> object:
        """Send one control message and wait for its reply.

        Control calls are cheap and idempotent (prepare / flush /
        stats), so one that dies with the worker is re-issued once
        after the slot respawns: on a connection other than the one
        the call was lost on.
        """
        future: Future = Future()
        with self._lock:
            mid = next(self._ids)
            sendable = {**message, "id": mid}
            self._pending[mid] = _Pending(
                worker=worker, kind=kind, message=sendable, future=future,
                sent_at=time.monotonic(),
            )
        sent_on = self._send(worker, sendable)
        try:
            return future.result(
                timeout if timeout is not None else self.config.rpc_timeout_s
            )
        except (TimeoutError, _FutureTimeout):
            with self._lock:
                self._pending.pop(mid, None)
            raise FleetError(
                f"worker {worker!r} did not answer a {kind!r} call within "
                f"{self.config.rpc_timeout_s:.1f}s"
            ) from None
        except FleetError as exc:
            if _retried or self._closed:
                raise
            lost = isinstance(exc, WorkerCrashError)
            self._await_ready(worker, sent_on if lost else None)
            return self._call(worker, kind, message, timeout, _retried=True)

    # -- request routing -------------------------------------------------
    def _session_name(self, request: Request) -> str:
        key = class_key(request)
        with self._lock:
            name = self._sessions.get(key)
            if name is not None:
                return name
            if request.session is not None:
                name = request.session
            else:
                self._session_counter += 1
                name = f"{request.op}#{self._session_counter}"
            self._sessions[key] = name
            # the prepare message ships the operand once per worker;
            # dense payloads (rhs / a / b / ids) travel per run message
            prep = replace(
                request, session=name, **dict.fromkeys(request.payload_fields)
            )
            field = request.operand_field
            self._retained[name] = (
                getattr(request, field) if field is not None else None
            )
            self._prepare_requests[name] = prep
            return name

    def _ensure_prepared(self, worker: str, name: str) -> None:
        with self._lock:
            if name in self._prepared[worker]:
                return
        generation = self.pool.handle(worker).restarts
        self._call(
            worker, "prepare",
            {"op": "prepare", "request": self._prepare_requests[name]},
        )
        with self._lock:
            # a respawn between the ack and here voids the prepare;
            # only record it against the process that acked it
            if self.pool.handle(worker).restarts == generation:
                self._prepared[worker].add(name)

    def _strip(self, request: Request, name: str) -> Request:
        """The run-message form: session pinned, operand stripped (the
        worker re-attaches its retained copy)."""
        field = request.operand_field
        stripped = {field: None} if field is not None else {}
        return replace(request, session=name, **stripped)

    # -- the Client verbs ------------------------------------------------
    def submit(self, request: Request) -> Future:
        """Route one request to its placed worker; the future resolves
        to its :class:`~repro.api.requests.Response` (or the typed
        error the worker raised)."""
        if self._closed:
            raise EngineClosedError("fleet gateway is closed; submit refused")
        name = self._session_name(request)
        check_operand(request, name, self._retained.get(name))
        worker = self.ring.lookup(name, exclude=self._dead)
        self._ensure_prepared(worker, name)
        future: Future = Future()
        # shipped at once, so running from the start: cancel() returns
        # False and the reply always finds a future it may resolve
        future.set_running_or_notify_cancel()
        with self._lock:
            if self._inflight[worker] >= self.config.max_inflight:
                self.metrics.counter(
                    names.FLEET_SHED, {"worker": worker}
                ).inc()
                raise AdmissionError(
                    f"fleet worker {worker!r} is at its in-flight cap "
                    f"({self.config.max_inflight}); request to session "
                    f"{name!r} shed"
                )
            mid = next(self._ids)
            message = {
                "op": "run", "id": mid,
                "request": self._strip(request, name),
            }
            self._pending[mid] = _Pending(
                worker=worker, kind="run", message=message, future=future,
                session=name, sent_at=time.monotonic(),
            )
            self._inflight[worker] += 1
            self.metrics.gauge(
                names.FLEET_INFLIGHT, {"worker": worker}
            ).set(self._inflight[worker])
        self.metrics.counter(names.FLEET_REQUESTS, {"worker": worker}).inc()
        self._send(worker, message)
        return future

    def run(self, request: Request) -> Response:
        """Blocking convenience wrapper around :meth:`submit`."""
        return self.submit(request).result(self.config.rpc_timeout_s)

    # -- fleet operations ------------------------------------------------
    def flush(self) -> None:
        """Dispatch everything queued in every live worker's batcher."""
        for name in self._live():
            self._call(name, "flush", {"op": "flush"})

    def kill_worker(self, name: str) -> None:
        """SIGKILL one worker process (chaos / failover testing — the
        monitor detects the death and respawns the slot)."""
        self.pool.handle(name).kill()

    def worker_stats(self) -> dict:
        """Per-worker ``{name: {summary, metrics, sessions}}``."""
        return {name: self._call(name, "stats", {"op": "stats"})
                for name in self._live()}

    def metrics_snapshot(self) -> MetricsRegistry:
        """One registry aggregating the whole fleet: every live
        worker's families merged (summed / bucket-added) plus the
        gateway's own ``repro_fleet_*`` families."""
        docs = [
            stats["metrics"] for stats in self.worker_stats().values()
            if isinstance(stats, dict) and "metrics" in stats
        ]
        docs.append(self.metrics.to_dict())
        return MetricsRegistry.from_dict(merge_metric_docs(docs))

    def health(self, specs=None) -> "HealthReport":
        """Grade the merged fleet metrics against SLO objectives
        (default: :data:`FLEET_SLOS`)."""
        from repro.obs.health import evaluate_registry

        return evaluate_registry(
            self.metrics_snapshot(),
            specs if specs is not None else FLEET_SLOS,
        )

    def _live(self) -> list[str]:
        with self._lock:
            dead = set(self._dead)
        return [n for n in self.pool.names if n not in dead]

    def status(self) -> dict:
        """Point-in-time fleet topology for CLIs and tests."""
        now = time.time()
        with self._lock:
            workers = {}
            for name in self.pool.names:
                handle = self.pool.handle(name)
                beat = self._beat.get(name, {})
                workers[name] = {
                    "alive": handle.alive(),
                    "dead": name in self._dead,
                    "restarts": handle.restarts,
                    "inflight": self._inflight.get(name, 0),
                    "served": beat.get("served", 0),
                    "heartbeat_age_s": now - self._last_beat.get(name, now),
                    "sessions": sorted(
                        s for w, prepared in self._prepared.items()
                        if w == name for s in prepared
                    ),
                }
            placement = {
                name: self.ring.lookup(name, exclude=self._dead)
                for name in sorted(self._retained)
            } if len(self._dead) < len(self.pool) else {}
        return {
            "workers": workers,
            "placement": placement,
            "pack": self.pack.summary() if self.pack is not None else None,
            "pending": len(self._pending),
        }

    # -- lifecycle -------------------------------------------------------
    def close(self) -> None:
        """Shut the fleet down; safe to call repeatedly."""
        if self._closed:
            return
        self._closed = True
        for name in self._live():
            try:
                self._send(name, {"op": "shutdown", "id": next(self._ids)})
            except FleetError:
                pass
        self.pool.stop()

    def __enter__(self) -> "Gateway":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def open_fleet(
    config: FleetConfig | None = None, **overrides
) -> Gateway:
    """Stand up a worker fleet and return its :class:`Gateway` — the
    multi-process sibling of :func:`repro.open_engine`.

    Example::

        from repro.fleet import FleetConfig, open_fleet

        cfg = FleetConfig(workers=2)
        # with open_fleet(cfg) as gateway:
        #     gateway.run(api.AttentionRequest(seq_len=128))
        assert cfg.workers == 2
    """
    return Gateway(config, **overrides)
