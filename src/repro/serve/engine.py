"""The serving engine: prepared sessions + planned, batched dispatch.

An :class:`Engine` owns

- an :class:`~repro.serve.planner.ExecutionPlanner` (with its
  :class:`~repro.serve.cache.PlanCache`),
- a :class:`~repro.serve.batcher.MicroBatcher` + thread pool, and
- a :class:`~repro.obs.MetricsRegistry` — the one store every served
  batch is published into — with
  :class:`~repro.serve.telemetry.Telemetry` as its read-only serving
  view.

The engine is **device- and backend-aware**: its ``device`` argument is
validated into a :class:`~repro.runtime.Device` handle, and each
session pins one resolved :mod:`repro.runtime` backend. All request
intake runs the :mod:`repro.api.resolution` pipeline — the same
precision → device → backend → plan stages a one-shot
:func:`repro.api.run` call walks — so served outputs are bit-identical
to the direct path.

The typed front door is :func:`repro.open_engine` /
:class:`repro.api.Client`: submit any typed request and get a
:class:`~concurrent.futures.Future` — the request's only handle — for a
uniform :class:`~repro.api.Response`. Underneath, one
:class:`Session` class serves every request kind; a per-kind table
(:data:`_KINDS`, keyed by ``request.op``) says how a kind prepares its
session, which riders may share a launch (the group key), how they
coalesce — concatenated RHS columns (SpMM), concatenated ``ids`` rows
(``lra-classify``), summed ``batch`` (attention, ``prefill`` /
``decode``), or item by item (SDDMM) — and how the result splits back.
"""

from __future__ import annotations

import functools
import itertools
import time
from concurrent.futures import Future
from dataclasses import replace
from pathlib import Path
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.api.requests import Request, Response, SpmmRequest
from repro.api.resolution import (
    Resolution,
    bits_required,
    execute as execute_resolution,
    normalize,
    resolve as resolve_request,
)
from repro.core.matrix import SparseMatrix
from repro.errors import AdmissionError, ConfigError, EngineClosedError, RetuneError
from repro.obs import names as metric_names
from repro.obs.metrics import MetricsRegistry
from repro.obs.names import declare_standard
from repro.obs.profile import NULL_PROFILER, ProfileConfig, Profiler
from repro.obs.trace import Tracer
from repro.runtime import Device, resolve_backend
from repro.serve.batcher import BatchItem, BatchPolicy, MicroBatcher
from repro.serve.cache import PlanCache
from repro.serve.planner import ExecutionPlanner, Objective, Plan
from repro.serve.telemetry import Telemetry, publish_batch

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.autotune.policy import RetunePolicy
    from repro.autotune.scheduler import RetuneStatus

__all__ = ["Engine", "Session", "bits_required"]


class Session:
    """One prepared request class served through the engine's batcher.

    ``template`` is the request the session was prepared from, in
    canonical form with its per-call payload stripped: an SpMM
    session's ``lhs`` is converted to SR-BCRS **once** here, an SDDMM
    session's ``mask`` likewise, and attention / transformer sessions
    carry their topology (the transformer model + zoo mask are built at
    preparation). ``backend`` is the resolved runtime backend requests
    default to. :meth:`submit` takes a typed request of the session's
    kind; riders of one session coalesce as its kind prescribes.
    """

    def __init__(
        self, engine: "Engine", name: str, template: Request, backend: str
    ) -> None:
        self.engine = engine
        self.name = name
        self.template = template
        self.backend = backend
        self.kind = _KINDS[template.op]

    @property
    def op(self) -> str:
        """The request kind this session serves."""
        return self.template.op

    @property
    def operand(self):
        """The prepared operand (SpMM ``lhs``, SDDMM ``mask``), or
        ``None`` for topology-keyed kinds."""
        field = self.template.operand_field
        return getattr(self.template, field) if field is not None else None

    @functools.cached_property
    def weight_bits(self) -> int:
        """The Table-IV width an SpMM session's weights classify into."""
        return bits_required(self.template.lhs.bcrs.values, signed=True)

    def plan_for(self, n: int, r_bits: int) -> Plan:
        """The (cached) plan serving SpMM requests with an (K, n) RHS."""
        probe = SpmmRequest(
            lhs=self.operand,
            rhs=np.empty((self.operand.shape[1], n), dtype=np.int8),
            l_bits=self.weight_bits,
            r_bits=r_bits,
            objective=self.template.objective,
        )
        return self._resolve(probe).plan

    def _resolve(self, req: Request) -> Resolution:
        return resolve_request(
            req,
            device=self.engine._device,
            planner=self.engine.planner,
            backend=self.backend,
        )

    def submit(self, request: Request) -> Future:
        """Enqueue one typed request; resolves to a :class:`Response`."""
        self.engine._check_open(self.name)
        if request.op != self.op:
            raise ConfigError(
                f"session {self.name!r} serves {self.op} requests, not "
                f"{request.op}; use a different session name"
            )
        req = self.kind.intake(self, normalize(request))
        request_id, trace = self.engine._begin_request(self.name, self.op)
        with trace.span("plan-resolution") as span:
            res = self._resolve(req)
        if trace:
            span.set(
                plan_key=res.plan.key if res.plan is not None else None,
                backend=res.backend,
                device=res.device.name,
            )
        return self.engine._enqueue(
            self.name, (self.name, *self.kind.group(req, res)),
            {"request": req, "resolution": res}, request_id, trace,
        )


# -- the per-kind table ---------------------------------------------------
#
# Each entry says how one request kind is served: ``prepare`` builds a
# session's template and backend, ``intake`` fills the session defaults
# into a rider and validates it, ``group`` names what must match for
# riders to share one launch (a batch executes under one resolution),
# and ``launch`` coalesces a batch, executes it and splits the result
# into one Response per rider. ``launch`` returns ``(parts, resolution,
# modelled_s, launches)``.


def _execute(session: Session, res: Resolution, req: Request, **operands) -> Response:
    engine = session.engine
    return execute_resolution(
        res, req, planner=engine.planner, metrics=engine.metrics,
        profiler=engine.profiler, **operands,
    )


def _split_rows(r: Response, rows: list[int]) -> list[Response]:
    """One part per rider: its rows of the output and its share of the
    launch's modelled time, in proportion to its rows."""
    total = sum(rows)
    offsets = np.cumsum([0, *rows])
    return [
        replace(
            r,
            output=r.output[a:b] if r.output is not None else None,
            request_time_s=r.time_s * n / total,
        )
        for n, a, b in zip(rows, offsets, offsets[1:])
    ]


class _OperandKind:
    """SpMM / SDDMM: a prepared sparse operand, planned per request."""

    def prepare(self, engine: "Engine", request: Request) -> tuple[Request, str]:
        backend = resolve_backend(
            request.backend if request.backend is not None else engine.backend,
            op=request.op,
            device=engine._device,
        ).name
        objective = (
            request.objective if request.objective is not None
            else Objective.latency()
        )
        return normalize(replace(request, objective=objective)), backend


class _SpmmKind(_OperandKind):
    """Riders concatenate RHS columns into one launch, re-planned at the
    coalesced width; each gets its column slice and an equal share."""

    def intake(self, session: Session, req: Request) -> Request:
        return replace(
            req,
            objective=(
                req.objective if req.objective is not None
                else session.template.objective
            ),
            l_bits=req.l_bits if req.l_bits is not None else session.weight_bits,
        )

    def group(self, req: Request, res: Resolution) -> tuple:
        return (
            req.rhs.shape[1], res.precision, res.backend, res.device.name,
            req.scale, req.l_signed, tuple(sorted(req.knobs.items())),
            repr(res.config),
        )

    def launch(self, session: Session, items: Sequence[BatchItem]):
        req, res = items[0].payload["request"], items[0].payload["resolution"]
        widths = [item.payload["request"].rhs.shape[1] for item in items]
        rhs = np.concatenate(
            [item.payload["request"].rhs for item in items], axis=1
        )
        if len(items) > 1 and res.plan is not None:
            # the request-level plan fixed the precision; re-tune the
            # tile knobs for the width the coalesced launch actually has
            # (also memoized, keyed by the realized batch width)
            res = session._resolve(replace(
                req,
                rhs=rhs,
                precision=None,
                objective=Objective.fixed(res.plan.l_bits, res.plan.r_bits),
                l_bits=res.plan.l_bits,
                r_bits=res.plan.r_bits,
            ))
        r = _execute(session, res, req, rhs=rhs)
        offsets = np.cumsum([0, *widths])
        share = r.time_s / len(items)
        parts = [
            replace(r, output=r.output[:, a:b], request_time_s=share)
            for a, b in zip(offsets, offsets[1:])
        ]
        return parts, res, r.time_s, 1


class _SddmmKind(_OperandKind):
    """Sampled products carry their own dense operands, so riders share
    a dispatch (and telemetry group) but execute item by item."""

    def prepare(self, engine: "Engine", request: Request) -> tuple[Request, str]:
        if isinstance(request.mask, np.ndarray):
            request = replace(
                request, mask=SparseMatrix.from_dense(request.mask, vector_length=8)
            )
        return super().prepare(engine, request)

    def intake(self, session: Session, req: Request) -> Request:
        if req.objective is not None:
            return req
        return replace(req, objective=session.template.objective)

    def group(self, req: Request, res: Resolution) -> tuple:
        return (
            req.a.shape[1], res.precision, res.backend, res.device.name,
            req.output_format or "bcrs", tuple(sorted(req.knobs.items())),
            repr(res.config),
        )

    def launch(self, session: Session, items: Sequence[BatchItem]):
        parts = [
            _execute(
                session, item.payload["resolution"], item.payload["request"]
            )
            for item in items
        ]
        res = items[0].payload["resolution"]
        return parts, res, sum(p.time_s for p in parts), len(items)


class _ModelledKind:
    """Attention: a modelled forward pass over one topology (the paper's
    Fig. 17 latency pipeline). Riders must match the session's topology
    — the coalesced launch runs one — and coalesce by summing ``batch``."""

    def prepare(self, engine: "Engine", request: Request) -> tuple[Request, str]:
        # the Magicube-family backend check lives in the shared pipeline
        backend = resolve_request(
            request, device=engine._device, backend=engine.backend
        ).backend
        return normalize(replace(request, backend=backend)), backend

    def intake(self, session: Session, req: Request) -> Request:
        mine = session.template.topology
        theirs = replace(
            req, backend=req.backend if req.backend is not None else session.backend
        ).topology
        if theirs != mine:
            raise ConfigError(
                f"session {session.name!r} serves topology {mine}, not "
                f"{theirs}; use a different session name (or let the "
                f"client key by topology)"
            )
        return req

    def group(self, req: Request, res: Resolution) -> tuple:
        return ()

    def launch(self, session: Session, items: Sequence[BatchItem]):
        req, res = items[0].payload["request"], items[0].payload["resolution"]
        rows = [item.payload["request"].batch for item in items]
        r = _execute(session, res, req, batch=sum(rows))
        return _split_rows(r, rows), res, r.time_s, 1


class _TransformerKind(_ModelledKind):
    """Whole-model transformer: ``lra-classify`` riders concatenate their
    ``ids`` rows into one planned forward (each gets its logits rows);
    ``prefill`` / ``decode`` riders sum ``batch`` like attention."""

    def prepare(self, engine: "Engine", request: Request) -> tuple[Request, str]:
        # imported lazily: the transformer stack reaches
        # repro.serve.topology via the inference latency model
        from repro.transformer.serving import TransformerSpec, prepare_transformer

        template, backend = super().prepare(engine, request)
        prepare_transformer(TransformerSpec.of(template))  # build it once
        return template, backend

    def intake(self, session: Session, req: Request) -> Request:
        req = super().intake(session, req)
        if req.mode == "lra-classify" and req.ids is None:
            raise ConfigError(
                "TransformerRequest.ids is required for an lra-classify "
                "session"
            )
        return req

    def launch(self, session: Session, items: Sequence[BatchItem]):
        from repro.transformer.serving import TransformerSpec, prepare_transformer

        req, res = items[0].payload["request"], items[0].payload["resolution"]
        if req.mode != "lra-classify":
            return super().launch(session, items)
        ids_list = [item.payload["request"].ids for item in items]
        r = _execute(session, res, req, ids=np.concatenate(ids_list, axis=0))
        launches = prepare_transformer(
            TransformerSpec.of(req)
        ).launches_per_forward()
        rows = [ids.shape[0] for ids in ids_list]
        return _split_rows(r, rows), res, r.time_s, launches


#: how each request kind is served, keyed by ``request.op``
_KINDS = {
    "spmm": _SpmmKind(),
    "sddmm": _SddmmKind(),
    "attention": _ModelledKind(),
    "transformer": _TransformerKind(),
}


class Engine:
    """Batched serving engine over the runtime backend registry."""

    def __init__(
        self,
        device: "Device | str" = "A100",
        planner: ExecutionPlanner | None = None,
        cache: PlanCache | None = None,
        policy: BatchPolicy | None = None,
        max_workers: int = 4,
        backend: str | None = None,
        warm_start: "str | Path | Sequence[str | Path] | None" = None,
        retune: "RetunePolicy | None" = None,
        metrics=None,
        tracer: Tracer | None = None,
        profile: "ProfileConfig | Profiler | None" = None,
    ) -> None:
        """``warm_start`` preloads one or more shipped autotune
        artifacts (see :mod:`repro.autotune`) into the planner's plan
        cache, so swept request classes skip the cold planner search on
        first contact. Manifest drift against the live backend registry
        is reported as warnings, never an error. ``retune`` attaches
        (and starts) a background
        :class:`~repro.autotune.scheduler.RetuneScheduler` driven by
        the given :class:`~repro.autotune.policy.RetunePolicy`, closing
        the serve → autotune loop in-process. ``metrics`` injects a
        :class:`repro.obs.MetricsRegistry` (default: a fresh one per
        engine, so two engines' views never mix); served batches, the
        plan cache and the scheduler all publish into it, and
        ``engine.telemetry`` reads it back. ``tracer`` attaches a
        :class:`repro.obs.Tracer` — requests then carry their span
        tree on ``Response.trace``; the default is a disabled tracer
        (near-zero overhead). ``profile`` attaches
        a sampling profiler (a
        :class:`~repro.obs.profile.ProfileConfig`, or a prebuilt
        :class:`~repro.obs.profile.Profiler` to share across engines):
        batcher dispatch and backend ``execute`` calls then collect
        collapsed-stack samples on ``engine.profiler``; the default is
        the null profiler (one no-op method call per dispatch)."""
        if planner is not None and cache is not None:
            raise ConfigError("pass either a planner or a cache, not both")
        self._device = Device.resolve(device)
        if planner is not None and planner.device != self._device.name:
            raise ConfigError(
                f"planner device {planner.device!r} differs from the "
                f"engine device {self._device.name!r}"
            )
        self.backend = resolve_backend(
            backend, op="spmm", device=self._device
        ).name
        self.planner = (
            planner
            if planner is not None
            else ExecutionPlanner(device=self._device, cache=cache)
        )
        #: the warm-start artifact paths (the re-tuning scheduler
        #: drift-checks their manifests against the live registry)
        self.warm_start_paths: tuple[Path, ...] = ()
        if warm_start is not None:
            if isinstance(warm_start, (str, Path)):
                warm_start = [warm_start]
            self.warm_start_paths = tuple(Path(p) for p in warm_start)
            self.planner.warm_start(self.warm_start_paths)
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        declare_standard(self.metrics)
        self.tracer = tracer if tracer is not None else Tracer(enabled=False)
        if profile is None:
            self.profiler = NULL_PROFILER
        elif isinstance(profile, Profiler):
            self.profiler = profile
        else:
            self.profiler = Profiler(profile)
        self.telemetry = Telemetry(self.metrics)
        self.planner.cache.bind_metrics(self.metrics)
        #: monotonic request ids (``Response.request_id``)
        self._request_ids = itertools.count(1)
        self._batch_ids = itertools.count(1)
        self._sessions: dict[str, Session] = {}
        self._batcher = MicroBatcher(
            self._execute_batch, policy=policy, max_workers=max_workers,
            profiler=self.profiler,
        )
        self._closed = False
        self.retune = None
        if retune is not None:
            # imported lazily: repro.autotune imports the serve modules
            from repro.autotune.scheduler import RetuneScheduler

            self.retune = RetuneScheduler(
                self.metrics,
                retune,
                cache=self.planner.cache,
                baseline_keys=self.planner.cache.keys(),
                warm_start_paths=self.warm_start_paths,
            )
            self.retune.start()

    @property
    def device(self) -> str:
        """Name of the engine's (validated) device profile."""
        return self._device.name

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has run (closing is irreversible)."""
        return self._closed

    # -- session management --------------------------------------------
    def _open_session(self, name: str, request: Request) -> Session:
        """Prepare ``request``'s class once (operand conversion, backend
        pinning, model build) and serve it as session ``name``."""
        self._check_open(name)
        if name in self._sessions:
            raise ConfigError(f"session {name!r} already exists")
        request = replace(request, **dict.fromkeys(request.payload_fields))
        template, backend = _KINDS[request.op].prepare(self, request)
        session = self._sessions[name] = Session(self, name, template, backend)
        return session

    # -- request intake -------------------------------------------------
    def _check_open(self, session: str) -> None:
        """Refuse work once closed, before any conversion or planning."""
        if self._closed:
            raise EngineClosedError(
                f"engine is closed; request for session {session!r} refused"
            )

    def _begin_request(self, session: str, op: str):
        """Assign the next request id and open its trace (the id is
        also ``Response.request_id``, so a response, its trace and an
        admission-rejection message all name the same request)."""
        request_id = next(self._request_ids)
        return request_id, self.tracer.request(
            op=op, session=session, request_id=request_id
        )

    def _enqueue(
        self, session: str, key: tuple, payload: dict, request_id: int, trace
    ) -> Future:
        """Submit to the micro-batcher, accounting admission rejections."""
        payload["request_id"] = request_id
        span = None
        if trace:
            payload["trace"] = trace
            span = trace.span(
                "admission", queue_depth=self._batcher.queue_depth(key)
            )
        try:
            future = self._batcher.submit(key, payload)
        except AdmissionError as exc:
            if span is not None:
                span.set(rejected=True).end()
                self.tracer.finish(trace)
            self.metrics.counter(
                metric_names.REJECTIONS, {"session": session}
            ).inc()
            # name the shed request so rejection logs line up with
            # traces and the per-session rejection counters
            raise AdmissionError(f"request #{request_id}: {exc}") from exc
        if span is not None:
            span.end()
        self.metrics.gauge(
            metric_names.QUEUE_DEPTH, {"session": session}
        ).set(self._batcher.queue_depth(key))
        return future

    # -- lifecycle ------------------------------------------------------
    def flush(self) -> None:
        """Dispatch everything queued without waiting out the policy."""
        self._batcher.flush()

    def retune_status(self) -> "RetuneStatus":
        """The attached re-tuning scheduler's point-in-time status.

        Raises the typed :class:`~repro.errors.RetuneError` when the
        engine was opened without ``retune=`` — polling a scheduler
        that does not exist is a deployment bug, not an empty status.
        """
        if self.retune is None:
            raise RetuneError(
                "engine has no re-tuning scheduler; open it with "
                "repro.open_engine(retune=RetunePolicy(...))"
            )
        return self.retune.status()

    def close(self) -> None:
        """Drain queued work and shut down; safe to call repeatedly."""
        if self._closed:
            return
        self._closed = True
        if self.retune is not None:
            self.retune.stop()
        self._batcher.close()

    def __enter__(self) -> "Engine":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- batched execution ---------------------------------------------
    def _finalize_item(
        self,
        item: BatchItem,
        *,
        wall_s: float,
        modelled_s: float,
        batch_id: int,
        batch_size: int,
        plan_key: str | None = None,
        backend: str = "",
        device: str = "",
    ) -> tuple[int | None, dict | None]:
        """Close out one rider's trace: synthesize the queue span (its
        wait was measured by the batcher) and the kernel-launch span,
        retire the trace, and return ``(request_id, span tree)`` for
        the rider's :class:`Response`."""
        payload = item.payload
        request_id = payload.get("request_id")
        trace = payload.get("trace")
        if not trace:
            return request_id, None
        now = trace.now()
        trace.add_span(
            "queue",
            now - wall_s - item.queue_wait_s,
            now - wall_s,
            queue_wait_s=item.queue_wait_s,
            batch_id=batch_id,
        )
        trace.add_span(
            "kernel-launch",
            now - wall_s,
            now,
            modelled_time_s=modelled_s,
            plan_key=plan_key,
            backend=backend,
            device=device,
            batch_id=batch_id,
            batch_size=batch_size,
        )
        self.tracer.finish(trace)
        return request_id, trace.to_dict()

    def _execute_batch(
        self, key: tuple, items: Sequence[BatchItem]
    ) -> list[Response]:
        """Run one coalesced batch of a session's riders: the session's
        kind launches it, then publishes the batch once into the
        metrics registry and closes out one :class:`Response` per
        rider."""
        session = self._sessions[key[0]]
        t0 = time.perf_counter()
        parts, res, modelled_s, launches = session.kind.launch(session, items)
        wall_s = time.perf_counter() - t0
        batch_id = next(self._batch_ids)
        plan_key = parts[0].plan.key if parts[0].plan is not None else None
        publish_batch(
            self.metrics, session.name, modelled_s,
            [i.queue_wait_s for i in items],
            backend=res.backend, device=res.device.name,
            plan_key=plan_key,
            predicted_time_s=(
                res.plan.predicted_time_s if res.plan is not None else None
            ),
            launches=launches,
            wall_time_s=wall_s,
        )
        for part, item in zip(parts, items):
            part.request_id, part.trace = self._finalize_item(
                item, wall_s=wall_s, modelled_s=part.time_s,
                batch_id=batch_id, batch_size=len(items),
                plan_key=part.plan.key if part.plan is not None else None,
                backend=res.backend, device=res.device.name,
            )
            part.queue_wait_s = item.queue_wait_s
            part.batch_size = len(items)
        return parts

    # -- reporting ------------------------------------------------------
    def summary(self) -> dict:
        """Machine-readable engine state (telemetry views + plan cache)."""
        return {
            "device": self.device,
            "backend": self.backend,
            "sessions": {
                name: self.telemetry.summary(name).to_dict()
                for name in self.telemetry.sessions()
            },
            "backends": {
                f"{backend}@{device}":
                    self.telemetry.backend_summary(backend, device).to_dict()
                for backend, device in self.telemetry.backends()
            },
            "rejected": self.telemetry.rejections(),
            "total": self.telemetry.summary().to_dict(),
            "plan_cache": self.planner.cache.stats(),
            "plans": {
                key: self.planner.cache.peek(key).to_dict()
                for key in self.planner.cache.keys()
            },
        }

    def report(self) -> str:
        """The human-readable telemetry block."""
        return self.telemetry.render(self.planner.cache.stats())
