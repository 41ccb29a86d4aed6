"""The serving engine: prepared sessions + planned, batched dispatch.

An :class:`Engine` owns

- an :class:`~repro.serve.planner.ExecutionPlanner` (with its
  :class:`~repro.serve.cache.PlanCache`),
- a :class:`~repro.serve.batcher.MicroBatcher` + thread pool, and
- :class:`~repro.serve.telemetry.Telemetry` (injectable via the
  constructor's ``telemetry=`` for shared collectors).

The engine is **device- and backend-aware**: its ``device`` argument is
validated into a :class:`~repro.runtime.Device` handle, and each
session pins one resolved :mod:`repro.runtime` backend. All request
intake runs the :mod:`repro.api.resolution` pipeline — the same
precision → device → backend → plan stages a one-shot
:func:`repro.api.run` call walks — so served outputs are bit-identical
to the direct path; batching concatenates RHS columns, which the
integer kernels process independently.

The typed front door is :func:`repro.open_engine` /
:class:`repro.api.Client`: submit :class:`~repro.api.SpmmRequest` /
:class:`~repro.api.SddmmRequest` / :class:`~repro.api.AttentionRequest`
and get uniform :class:`~repro.api.Response` objects back. Sessions
remain the prepared-request-class handles underneath (an
:class:`SpmmSession` wraps a SparseMatrix converted **once**), and the
pre-v1 factories :meth:`Engine.spmm_session` /
:meth:`Engine.attention_session` are deprecation shims over them.
"""

from __future__ import annotations

import itertools
import threading
import time
import warnings
from collections import deque
from concurrent.futures import Future
from dataclasses import replace
from pathlib import Path
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.api.requests import (
    AttentionRequest,
    Response,
    SddmmRequest,
    SpmmRequest,
    TransformerRequest,
)
from repro.api.resolution import (
    Resolution,
    bits_required,
    execute as execute_resolution,
    normalize,
    resolve as resolve_request,
)
from repro.core.matrix import SparseMatrix
from repro.errors import AdmissionError, ConfigError, EngineClosedError, RetuneError
from repro.formats.bcrs import BCRSMatrix
from repro.obs import names as metric_names
from repro.obs.metrics import get_registry
from repro.obs.names import declare_standard
from repro.obs.profile import NULL_PROFILER, ProfileConfig, Profiler
from repro.obs.trace import NULL_TRACE, Tracer
from repro.runtime import DEFAULT_BACKEND, Device, resolve_backend
from repro.serve.batcher import BatchItem, BatchPolicy, MicroBatcher, RequestHandle
from repro.serve.cache import PlanCache
from repro.serve.planner import ExecutionPlanner, Objective, Plan
from repro.serve.telemetry import Telemetry

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.autotune.policy import RetunePolicy
    from repro.autotune.scheduler import RetuneStatus

__all__ = [
    "AttentionSession",
    "Engine",
    "SddmmSession",
    "ServeResult",
    "SpmmSession",
    "TransformerSession",
    "bits_required",
]

#: pre-v1 name of the unified response type (superseded by
#: :class:`repro.api.Response`)
ServeResult = Response


class SpmmSession:
    """A prepared sparse operand serving SpMM requests on one backend."""

    def __init__(
        self,
        engine: "Engine",
        name: str,
        matrix: SparseMatrix,
        objective: Objective,
        backend: str,
    ) -> None:
        self.engine = engine
        self.name = name
        self.matrix = matrix
        self.objective = objective
        self.backend = backend
        self.weight_bits = bits_required(matrix.bcrs.values, signed=True)

    def plan_for(self, n: int, r_bits: int) -> Plan:
        """The (cached) plan serving requests with an (K, n) RHS."""
        probe = SpmmRequest(
            lhs=self.matrix,
            rhs=np.empty((self.matrix.shape[1], n), dtype=np.int8),
            l_bits=self.weight_bits,
            r_bits=r_bits,
            objective=self.objective,
        )
        return self._resolve(probe).plan

    def _resolve(self, req: SpmmRequest) -> Resolution:
        return resolve_request(
            req,
            device=self.engine._device,
            planner=self.engine.planner,
            backend=self.backend,
        )

    def submit_request(self, req: SpmmRequest) -> Future:
        """Enqueue one typed request; resolves to a :class:`Response`."""
        request_id, trace = self.engine._begin_request(self.name, "spmm")
        req = normalize(
            replace(
                req,
                objective=req.objective if req.objective is not None else self.objective,
                l_bits=req.l_bits if req.l_bits is not None else self.weight_bits,
            )
        )
        with trace.span("plan-resolution") as span:
            res = self._resolve(req)
        if trace:
            span.set(
                plan_key=res.plan.key if res.plan is not None else None,
                backend=res.backend,
                device=res.device_label,
            )
        # the group key carries everything that must match for requests
        # to share one kernel launch — a batch executes under a single
        # resolution, so riders with a different backend/device/config
        # must never coalesce
        key = (
            "spmm", self.name, req.rhs.shape[1], res.precision,
            res.backend, res.device_label, req.scale, req.l_signed,
            tuple(sorted(req.knobs.items())), repr(res.config),
        )
        return self.engine._enqueue(
            self.name, key, {"request": req, "resolution": res},
            request_id=request_id, trace=trace,
        )

    def submit(self, rhs: np.ndarray, r_bits: int | None = None) -> Future:
        """Enqueue one SpMM request; resolves to a :class:`Response`."""
        return self.submit_request(
            SpmmRequest(lhs=self.matrix, rhs=rhs, r_bits=r_bits)
        )

    def submit_async(
        self, rhs: np.ndarray, r_bits: int | None = None
    ) -> RequestHandle:
        """Like :meth:`submit`, returning an awaitable ticketed handle."""
        return self.engine._track(self.submit(rhs, r_bits=r_bits))

    def run(self, rhs: np.ndarray, r_bits: int | None = None) -> Response:
        """Blocking convenience wrapper around :meth:`submit`."""
        return self.submit(rhs, r_bits=r_bits).result()


class SddmmSession:
    """A prepared sparse topology serving SDDMM requests.

    Same-class requests share the batcher's dispatch (and telemetry
    group) but execute item-by-item — sampled products carry their own
    dense operands, so there is no column concatenation to exploit.
    """

    def __init__(
        self,
        engine: "Engine",
        name: str,
        mask: "SparseMatrix | BCRSMatrix",
        objective: Objective,
        backend: str,
    ) -> None:
        self.engine = engine
        self.name = name
        self.topology = mask
        self.objective = objective
        self.backend = backend

    def _resolve(self, req: SddmmRequest) -> Resolution:
        return resolve_request(
            req,
            device=self.engine._device,
            planner=self.engine.planner,
            backend=self.backend,
        )

    def submit_request(self, req: SddmmRequest) -> Future:
        """Enqueue one typed request; resolves to a :class:`Response`."""
        request_id, trace = self.engine._begin_request(self.name, "sddmm")
        req = normalize(
            replace(
                req,
                objective=req.objective if req.objective is not None else self.objective,
            )
        )
        with trace.span("plan-resolution") as span:
            res = self._resolve(req)
        if trace:
            span.set(
                plan_key=res.plan.key if res.plan is not None else None,
                backend=res.backend,
                device=res.device_label,
            )
        key = (
            "sddmm", self.name, req.a.shape[1], res.precision,
            res.backend, res.device_label, req.output_format or "bcrs",
            tuple(sorted(req.knobs.items())), repr(res.config),
        )
        return self.engine._enqueue(
            self.name, key, {"request": req, "resolution": res},
            request_id=request_id, trace=trace,
        )

    def submit(
        self, a: np.ndarray, b: np.ndarray, precision: str | None = None
    ) -> Future:
        """Enqueue one SDDMM request; resolves to a :class:`Response`."""
        return self.submit_request(
            SddmmRequest(a=a, b=b, mask=self.topology, precision=precision)
        )

    def submit_async(
        self, a: np.ndarray, b: np.ndarray, precision: str | None = None
    ) -> RequestHandle:
        """Like :meth:`submit`, returning an awaitable ticketed handle."""
        return self.engine._track(self.submit(a, b, precision=precision))

    def run(
        self, a: np.ndarray, b: np.ndarray, precision: str | None = None
    ) -> Response:
        return self.submit(a, b, precision=precision).result()


class AttentionSession:
    """A sparse-Transformer attention block served via planner routing.

    Requests are modelled forward passes (the paper's Fig. 17 latency
    pipeline); same-(seq, heads) requests coalesce by summing their
    batch dimensions into one launch.
    """

    def __init__(
        self,
        engine: "Engine",
        name: str,
        seq_len: int,
        num_heads: int = 4,
        sparsity: float = 0.9,
        scheme: tuple[int, int] = (8, 8),
        vector_length: int = 8,
        num_layers: int = 4,
        d_head: int = 64,
        num_gpus: int = 1,
        backend: str = DEFAULT_BACKEND,
    ) -> None:
        self.engine = engine
        self.name = name
        self.seq_len = seq_len
        self.num_heads = num_heads
        self.sparsity = sparsity
        self.scheme = scheme
        self.vector_length = vector_length
        self.num_layers = num_layers
        self.d_head = d_head
        self.num_gpus = num_gpus
        self.backend = backend

    def request(self, batch: int = 1) -> AttentionRequest:
        """This session's topology as a typed request."""
        return AttentionRequest(
            seq_len=self.seq_len,
            num_heads=self.num_heads,
            sparsity=self.sparsity,
            scheme=self.scheme,
            vector_length=self.vector_length,
            num_layers=self.num_layers,
            d_head=self.d_head,
            num_gpus=self.num_gpus,
            batch=batch,
            backend=self.backend,
        )

    def submit_request(self, req: AttentionRequest) -> Future:
        """Enqueue one typed request; resolves to a :class:`Response`.

        The request's topology must match this prepared session — the
        coalesced launch executes one topology, so serving a mismatch
        would price the wrong forward pass.
        """
        request_id, trace = self.engine._begin_request(self.name, "attention")
        # attention resolves at execute time (the coalesced launch owns
        # one topology); the validation below is this op's plan stage
        with trace.span("plan-resolution") as span:
            req = normalize(req)
            mine = self.request().topology
            theirs = replace(
                req, backend=req.backend if req.backend is not None else self.backend
            ).topology
        if trace:
            span.set(backend=self.backend, device=self.engine.device)
        if theirs != mine:
            raise ConfigError(
                f"session {self.name!r} serves topology {mine}, not "
                f"{theirs}; use a different session name (or let the "
                f"client key by topology)"
            )
        key = ("attention", self.name)
        return self.engine._enqueue(
            self.name, key, {"batch": req.batch},
            request_id=request_id, trace=trace,
        )

    def submit(self, batch: int = 1) -> Future:
        """Enqueue one forward-pass request of ``batch`` sequences."""
        return self.submit_request(self.request(batch))

    def submit_async(self, batch: int = 1) -> RequestHandle:
        """Like :meth:`submit`, returning an awaitable ticketed handle."""
        return self.engine._track(self.submit(batch=batch))

    def run(self, batch: int = 1) -> Response:
        return self.submit(batch=batch).result()


class TransformerSession:
    """A whole-model transformer request class served via planner routing.

    The prepared state is the seeded model + zoo mask (built once at
    session creation, shared through the
    :mod:`repro.transformer.serving` memo). ``lra-classify`` requests
    coalesce by concatenating their ``ids`` rows into one planned
    forward — every layer's SDDMM/SpMM launch is a plan-cache hit on
    the session's (variant-priced) plan pair — and the ``prefill`` /
    ``decode`` latency modes coalesce by summing batch dimensions,
    like attention.
    """

    def __init__(
        self,
        engine: "Engine",
        name: str,
        mode: str = "lra-classify",
        seq_len: int = 128,
        d_model: int = 64,
        num_heads: int = 2,
        num_layers: int = 2,
        d_ff: int = 128,
        vocab: int = 16,
        num_classes: int = 2,
        mask_variant: str = "strided",
        sparsity: float = 0.9,
        scheme: tuple[int, int] = (16, 8),
        seed: int = 0,
        vector_length: int = 8,
        backend: str = DEFAULT_BACKEND,
    ) -> None:
        # imported lazily: the transformer stack reaches
        # repro.serve.topology via the inference latency model
        from repro.transformer.serving import TransformerSpec, prepare_transformer

        self.engine = engine
        self.name = name
        self.mode = mode
        self.seq_len = seq_len
        self.d_model = d_model
        self.num_heads = num_heads
        self.num_layers = num_layers
        self.d_ff = d_ff
        self.vocab = vocab
        self.num_classes = num_classes
        self.mask_variant = mask_variant
        self.sparsity = sparsity
        self.scheme = scheme
        self.seed = seed
        self.vector_length = vector_length
        self.backend = backend
        self.prepared = prepare_transformer(TransformerSpec(
            seq_len=seq_len,
            d_model=d_model,
            num_heads=num_heads,
            num_layers=num_layers,
            d_ff=d_ff,
            vocab=vocab,
            num_classes=num_classes,
            mask_variant=mask_variant,
            sparsity=sparsity,
            vector_length=vector_length,
            seed=seed,
        ))

    def request(
        self, ids: np.ndarray | None = None, batch: int = 1
    ) -> TransformerRequest:
        """This session's topology as a typed request."""
        return TransformerRequest(
            mode=self.mode,
            ids=ids,
            seq_len=self.seq_len,
            d_model=self.d_model,
            num_heads=self.num_heads,
            num_layers=self.num_layers,
            d_ff=self.d_ff,
            vocab=self.vocab,
            num_classes=self.num_classes,
            mask_variant=self.mask_variant,
            sparsity=self.sparsity,
            scheme=self.scheme,
            seed=self.seed,
            vector_length=self.vector_length,
            batch=batch,
            backend=self.backend,
        )

    def submit_request(self, req: TransformerRequest) -> Future:
        """Enqueue one typed request; resolves to a :class:`Response`.

        The request's topology (mode, shape, mask variant, scheme,
        seed) must match this prepared session — the coalesced forward
        runs one model, so serving a mismatch would return the wrong
        logits.
        """
        request_id, trace = self.engine._begin_request(self.name, "transformer")
        with trace.span("plan-resolution") as span:
            req = normalize(req)
            mine = self.request().topology
            theirs = replace(
                req, backend=req.backend if req.backend is not None else self.backend
            ).topology
        if trace:
            span.set(backend=self.backend, device=self.engine.device)
        if theirs != mine:
            raise ConfigError(
                f"session {self.name!r} serves topology {mine}, not "
                f"{theirs}; use a different session name (or let the "
                f"client key by topology)"
            )
        if self.mode == "lra-classify" and req.ids is None:
            raise ConfigError(
                "TransformerRequest.ids is required for an lra-classify "
                "session"
            )
        key = ("transformer", self.name)
        return self.engine._enqueue(
            self.name, key, {"ids": req.ids, "batch": req.batch},
            request_id=request_id, trace=trace,
        )

    def submit(
        self, ids: np.ndarray | None = None, batch: int = 1
    ) -> Future:
        """Enqueue one forward (``ids``) or latency-model request."""
        return self.submit_request(self.request(ids=ids, batch=batch))

    def submit_async(
        self, ids: np.ndarray | None = None, batch: int = 1
    ) -> RequestHandle:
        """Like :meth:`submit`, returning an awaitable ticketed handle."""
        return self.engine._track(self.submit(ids=ids, batch=batch))

    def run(
        self, ids: np.ndarray | None = None, batch: int = 1
    ) -> Response:
        return self.submit(ids=ids, batch=batch).result()


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
        telemetry: Telemetry | None = None,
        retune: "RetunePolicy | None" = None,
        metrics=None,
        tracer: Tracer | None = None,
        profile: "ProfileConfig | Profiler | None" = None,
    ) -> None:
        """``warm_start`` preloads one or more shipped autotune
        artifacts (see :mod:`repro.autotune`) into the planner's plan
        cache, so swept request classes skip the cold planner search on
        first contact. Manifest drift against the live backend registry
        is reported as warnings, never an error. ``telemetry`` injects
        a shared collector (the default builds a fresh one). ``retune``
        attaches (and starts) a background
        :class:`~repro.autotune.scheduler.RetuneScheduler` driven by
        the given :class:`~repro.autotune.policy.RetunePolicy`, closing
        the serve → autotune loop in-process. ``metrics`` injects a
        :class:`repro.obs.MetricsRegistry` (default: the process-wide
        one); the telemetry, plan cache and scheduler all publish into
        it. ``tracer`` attaches a :class:`repro.obs.Tracer` — requests
        then carry their span tree on ``Response.trace``; the default
        is a disabled tracer (near-zero overhead). ``profile`` attaches
        a sampling profiler (a
        :class:`~repro.obs.profile.ProfileConfig`, or a prebuilt
        :class:`~repro.obs.profile.Profiler` to share across engines):
        batcher dispatch and backend ``execute`` calls then collect
        collapsed-stack samples on ``engine.profiler``; the default is
        the null profiler (one no-op method call per dispatch)."""
        if planner is not None and cache is not None:
            raise ConfigError("pass either a planner or a cache, not both")
        self._device = Device.resolve(device)
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
        self.metrics = metrics if metrics is not None else get_registry()
        declare_standard(self.metrics)
        self.tracer = tracer if tracer is not None else Tracer(enabled=False)
        if profile is None:
            self.profiler = NULL_PROFILER
        elif isinstance(profile, Profiler):
            self.profiler = profile
        else:
            self.profiler = Profiler(profile)
        self.telemetry = telemetry if telemetry is not None else Telemetry()
        self.telemetry.bind_metrics(self.metrics)
        self.planner.cache.bind_metrics(self.metrics)
        #: monotonic request ids (also the ticket ids `submit` hands out)
        self._request_ids = itertools.count(1)
        self._batch_ids = itertools.count(1)
        self._sessions: dict[
            str,
            SpmmSession | SddmmSession | AttentionSession | TransformerSession,
        ] = {}
        self._batcher = MicroBatcher(
            self._execute_batch, policy=policy, max_workers=max_workers,
            profiler=self.profiler,
        )
        self._closed = False
        self._inflight: dict[int, RequestHandle] = {}
        self._completed_ids: deque[int] = deque()
        self._inflight_lock = threading.Lock()
        self.retune = None
        if retune is not None:
            # imported lazily: repro.autotune imports the serve modules
            from repro.autotune.scheduler import RetuneScheduler

            self.retune = RetuneScheduler(self, retune)
            self.retune.start()

    #: completed-but-unredeemed tickets kept redeemable by integer id;
    #: beyond this, the oldest are forgotten (callers holding the
    #: RequestHandle itself are unaffected) — bounds the ticket registry
    #: for clients that await handles and never call result()
    COMPLETED_TICKET_LIMIT = 1024

    @property
    def device(self) -> str:
        """Name of the engine's (validated) device profile."""
        return self._device.name

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has run (closing is irreversible)."""
        return self._closed

    # -- session management --------------------------------------------
    def _make_spmm_session(
        self,
        name: str,
        weights: "np.ndarray | SparseMatrix",
        vector_length: int = 8,
        objective: Objective | None = None,
        backend: str | None = None,
    ) -> SpmmSession:
        """Prepare a sparse operand once and serve SpMM against it."""
        self._check_name(name)
        resolved = resolve_backend(
            backend if backend is not None else self.backend,
            op="spmm",
            device=self._device,
        ).name
        if not isinstance(weights, SparseMatrix):
            weights = SparseMatrix.from_dense(
                np.asarray(weights), vector_length=vector_length
            )
        session = SpmmSession(
            self, name, weights,
            objective if objective is not None else Objective.latency(),
            backend=resolved,
        )
        self._sessions[name] = session
        return session

    def _make_sddmm_session(
        self,
        name: str,
        mask: "np.ndarray | SparseMatrix | BCRSMatrix",
        vector_length: int = 8,
        objective: Objective | None = None,
        backend: str | None = None,
    ) -> SddmmSession:
        """Prepare a sparse topology once and serve SDDMM against it."""
        self._check_name(name)
        resolved = resolve_backend(
            backend if backend is not None else self.backend,
            op="sddmm",
            device=self._device,
        ).name
        if isinstance(mask, np.ndarray):
            mask = SparseMatrix.from_dense(mask, vector_length=vector_length)
        session = SddmmSession(
            self, name, mask,
            objective if objective is not None else Objective.latency(),
            backend=resolved,
        )
        self._sessions[name] = session
        return session

    def _make_attention_session(
        self, name: str, seq_len: int, **kwargs
    ) -> AttentionSession:
        """Prepare an attention-block latency session.

        The attention path models the paper's quantized Magicube
        pipeline, so its plans must come from a Magicube-family
        backend; the default inherits the engine's backend when that is
        one, else :data:`~repro.runtime.DEFAULT_BACKEND`. Validation
        runs through the shared resolution pipeline.
        """
        self._check_name(name)
        probe = resolve_request(
            AttentionRequest(
                seq_len=seq_len,
                num_heads=kwargs.get("num_heads", 4),
                num_gpus=kwargs.get("num_gpus", 1),
                backend=kwargs.get("backend"),
            ),
            device=self._device,
            backend=self.backend,
        )
        kwargs["backend"] = probe.backend
        session = AttentionSession(self, name, seq_len, **kwargs)
        self._sessions[name] = session
        return session

    def _make_transformer_session(
        self, name: str, **kwargs
    ) -> TransformerSession:
        """Prepare a whole-model transformer session.

        The model + zoo mask are built once here (and memoized across
        sessions with the same spec); the backend must be a
        Magicube-family one — validation runs through the shared
        resolution pipeline, exactly like attention.
        """
        self._check_name(name)
        probe = resolve_request(
            TransformerRequest(
                mode=kwargs.get("mode", "lra-classify"),
                seq_len=kwargs.get("seq_len", 128),
                mask_variant=kwargs.get("mask_variant", "strided"),
                backend=kwargs.get("backend"),
            ),
            device=self._device,
            backend=self.backend,
        )
        kwargs["backend"] = probe.backend
        session = TransformerSession(self, name, **kwargs)
        self._sessions[name] = session
        return session

    def spmm_session(
        self,
        name: str,
        weights: "np.ndarray | SparseMatrix",
        vector_length: int = 8,
        objective: Objective | None = None,
        backend: str | None = None,
    ) -> SpmmSession:
        """Prepare a sparse operand once and serve SpMM against it.

        .. deprecated:: v1
            Open a client with ``repro.open_engine(...)`` and submit
            ``repro.api.SpmmRequest(lhs=..., rhs=..., session=name)``;
            the client prepares and reuses the session for you.
        """
        warnings.warn(
            "Engine.spmm_session(...) is deprecated; use "
            "repro.open_engine(...) and submit "
            "repro.api.SpmmRequest(lhs=..., rhs=..., session=...) instead "
            "(see docs/api.md for the migration table)",
            DeprecationWarning,
            stacklevel=2,
        )
        return self._make_spmm_session(
            name, weights, vector_length=vector_length,
            objective=objective, backend=backend,
        )

    def attention_session(self, name: str, seq_len: int, **kwargs) -> AttentionSession:
        """Prepare an attention-block latency session.

        .. deprecated:: v1
            Open a client with ``repro.open_engine(...)`` and submit
            ``repro.api.AttentionRequest(seq_len=..., session=name)``;
            the client prepares and reuses the session for you.
        """
        warnings.warn(
            "Engine.attention_session(...) is deprecated; use "
            "repro.open_engine(...) and submit "
            "repro.api.AttentionRequest(seq_len=..., session=...) instead "
            "(see docs/api.md for the migration table)",
            DeprecationWarning,
            stacklevel=2,
        )
        return self._make_attention_session(name, seq_len, **kwargs)

    def session(
        self, name: str
    ) -> "SpmmSession | SddmmSession | AttentionSession | TransformerSession":
        return self._sessions[name]

    def _check_name(self, name: str) -> None:
        if name in self._sessions:
            raise ConfigError(f"session {name!r} already exists")

    # -- request intake -------------------------------------------------
    def _begin_request(self, session: str, op: str):
        """Assign the next request id and open its trace (the id is
        also the ticket id ``submit`` hands out, so a trace, a log line
        and a redeemable ticket all name the same request)."""
        request_id = next(self._request_ids)
        return request_id, self.tracer.request(
            op=op, session=session, request_id=request_id
        )

    def _enqueue(
        self,
        session: str,
        key: tuple,
        payload: dict,
        request_id: int | None = None,
        trace=None,
    ) -> Future:
        """Submit to the micro-batcher, accounting admission rejections."""
        if self._closed:
            raise EngineClosedError(
                f"engine is closed; request for session {session!r} refused"
            )
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
            self.telemetry.record_rejection(session)
            if request_id is not None:
                # name the shed request so rejection logs line up with
                # traces and the per-session rejection counters
                raise AdmissionError(f"request #{request_id}: {exc}") from exc
            raise
        if span is not None:
            span.end()
        self.metrics.gauge(
            metric_names.QUEUE_DEPTH, {"session": session}
        ).set(self._batcher.queue_depth(key))
        future._repro_request_id = request_id
        return future

    # -- ticketed client API -------------------------------------------
    def _track(self, future: Future) -> RequestHandle:
        request_id = getattr(future, "_repro_request_id", None)
        if request_id is not None:
            # the ticket id IS the engine's request id
            handle = RequestHandle(request_id, future)
        else:
            handle = self._batcher.wrap(future)
        with self._inflight_lock:
            self._inflight[handle.id] = handle
        future.add_done_callback(
            lambda _f, ticket=handle.id: self._note_completed(ticket)
        )
        return handle

    def _note_completed(self, ticket: int) -> None:
        """Move a resolved ticket to the bounded completed window."""
        with self._inflight_lock:
            if ticket not in self._inflight:
                return  # already redeemed
            self._completed_ids.append(ticket)
            while len(self._completed_ids) > self.COMPLETED_TICKET_LIMIT:
                evicted = self._completed_ids.popleft()
                self._inflight.pop(evicted, None)

    def submit(self, session: str, *args, **kwargs) -> RequestHandle:
        """Enqueue one request on a named session; returns its ticket.

        The ticket is an awaitable :class:`RequestHandle`; redeem it
        with :meth:`result` (also accepted by integer id), ``await`` it
        from asyncio code, or poll ``handle.done()``. Raises
        :class:`~repro.errors.EngineClosedError` once :meth:`close`
        has run.
        """
        if self._closed:
            raise EngineClosedError(
                f"engine is closed; submit({session!r}, ...) refused"
            )
        return self._sessions[session].submit_async(*args, **kwargs)

    def result(
        self, request: "RequestHandle | int", timeout: float | None = None
    ) -> Response:
        """Redeem a ticket from :meth:`submit`; blocks until resolved.

        Tickets that resolved before :meth:`close` stay redeemable;
        unknown tickets raise
        :class:`~repro.errors.EngineClosedError` after close (they can
        never resolve) and :class:`~repro.errors.ConfigError` before.
        """
        if isinstance(request, RequestHandle):
            handle = request
        else:
            with self._inflight_lock:
                handle = self._inflight.get(request)
            if handle is None:
                if self._closed:
                    raise EngineClosedError(
                        f"engine is closed; ticket {request!r} cannot resolve"
                    )
                raise ConfigError(f"unknown request ticket {request!r}")
        try:
            return handle.result(timeout)
        finally:
            if handle.done():
                with self._inflight_lock:
                    self._inflight.pop(handle.id, None)

    def pending_requests(self) -> int:
        """Outstanding tickets issued but not yet redeemed."""
        with self._inflight_lock:
            return sum(1 for h in self._inflight.values() if not h.done())

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
        kind, name = key[0], key[1]
        session = self._sessions[name]
        if kind == "spmm":
            return self._execute_spmm(session, items)
        if kind == "sddmm":
            return self._execute_sddmm(session, items)
        if kind == "attention":
            return self._execute_attention(session, items)
        if kind == "transformer":
            return self._execute_transformer(session, items)
        raise ConfigError(f"unknown request kind {kind!r}")

    def _execute_spmm(
        self, session: SpmmSession, items: Sequence[BatchItem]
    ) -> list[Response]:
        req: SpmmRequest = items[0].payload["request"]
        res: Resolution = items[0].payload["resolution"]
        widths = [item.payload["request"].rhs.shape[1] for item in items]
        rhs = np.concatenate(
            [item.payload["request"].rhs for item in items], axis=1
        )
        if len(items) > 1 and res.plan is not None:
            # the request-level plan fixed the precision; re-tune the
            # tile knobs for the width the coalesced launch actually has
            # (also memoized, keyed by the realized batch width)
            res = session._resolve(
                replace(
                    req,
                    rhs=rhs,
                    precision=None,
                    objective=Objective.fixed(res.plan.l_bits, res.plan.r_bits),
                    l_bits=res.plan.l_bits,
                    r_bits=res.plan.r_bits,
                )
            )
        t0 = time.perf_counter()
        r = execute_resolution(
            res, req, rhs=rhs, metrics=self.metrics, profiler=self.profiler
        )
        wall_s = time.perf_counter() - t0
        batch_id = next(self._batch_ids)
        self.telemetry.record_batch(
            session.name, "spmm", r.time_s, [i.queue_wait_s for i in items],
            backend=res.backend, device=res.device_label,
            plan_key=res.plan.key if res.plan is not None else None,
            predicted_time_s=(
                res.plan.predicted_time_s if res.plan is not None else None
            ),
            shards=res.plan.shards if res.plan is not None else 1,
            wall_time_s=wall_s,
        )
        offsets = np.concatenate([[0], np.cumsum(widths)])
        share = r.time_s / len(items)
        responses = []
        for i, item in enumerate(items):
            request_id, trace = self._finalize_item(
                item, wall_s=wall_s, modelled_s=r.time_s,
                batch_id=batch_id, batch_size=len(items),
                plan_key=res.plan.key if res.plan is not None else None,
                backend=res.backend, device=res.device_label,
            )
            responses.append(Response(
                output=r.output[:, offsets[i]: offsets[i + 1]],
                time_s=r.time_s,
                tops=r.tops,
                stats=r.stats,
                plan=res.plan,
                backend=res.backend,
                device=res.device_label,
                precision=res.precision,
                request_time_s=share,
                queue_wait_s=item.queue_wait_s,
                batch_size=len(items),
                request_id=request_id,
                trace=trace,
            ))
        return responses

    def _execute_sddmm(
        self, session: SddmmSession, items: Sequence[BatchItem]
    ) -> list[Response]:
        # sampled products carry their own dense operands; execute
        # item-by-item under one dispatch (shared telemetry group)
        batch_id = next(self._batch_ids)
        t0 = time.perf_counter()
        results = []
        for item in items:
            req: SddmmRequest = item.payload["request"]
            res: Resolution = item.payload["resolution"]
            item_t0 = time.perf_counter()
            r = execute_resolution(
                res, req, metrics=self.metrics, profiler=self.profiler
            )
            request_id, trace = self._finalize_item(
                item, wall_s=time.perf_counter() - item_t0,
                modelled_s=r.time_s, batch_id=batch_id,
                batch_size=len(items),
                plan_key=res.plan.key if res.plan is not None else None,
                backend=res.backend, device=res.device_label,
            )
            results.append(
                Response(
                    output=r.output,
                    time_s=r.time_s,
                    tops=r.tops,
                    stats=r.stats,
                    plan=res.plan,
                    backend=res.backend,
                    device=res.device_label,
                    precision=res.precision,
                    queue_wait_s=item.queue_wait_s,
                    batch_size=len(items),
                    request_id=request_id,
                    trace=trace,
                )
            )
        res0: Resolution = items[0].payload["resolution"]
        self.telemetry.record_batch(
            session.name, "sddmm", sum(r.time_s for r in results),
            [i.queue_wait_s for i in items],
            backend=res0.backend, device=res0.device_label,
            plan_key=res0.plan.key if res0.plan is not None else None,
            predicted_time_s=(
                res0.plan.predicted_time_s if res0.plan is not None else None
            ),
            shards=res0.plan.shards if res0.plan is not None else 1,
            launches=len(items),  # sampled products execute item-by-item
            wall_time_s=time.perf_counter() - t0,
        )
        return results

    def _execute_attention(
        self, session: AttentionSession, items: Sequence[BatchItem]
    ) -> list[Response]:
        batches = [item.payload["batch"] for item in items]
        total = sum(batches)
        req = session.request(batch=total)
        t0 = time.perf_counter()
        res = resolve_request(req, device=self._device, backend=session.backend)
        r = execute_resolution(
            res, req, batch=total, planner=self.planner, metrics=self.metrics,
            profiler=self.profiler,
        )
        wall_s = time.perf_counter() - t0
        batch_id = next(self._batch_ids)
        self.telemetry.record_batch(
            session.name, "attention", r.time_s,
            [i.queue_wait_s for i in items],
            backend=session.backend, device=self.device,
            wall_time_s=wall_s,
        )
        responses = []
        for b, item in zip(batches, items):
            request_id, trace = self._finalize_item(
                item, wall_s=wall_s, modelled_s=r.time_s,
                batch_id=batch_id, batch_size=len(items),
                backend=res.backend, device=res.device_label,
            )
            responses.append(Response(
                output=None,
                time_s=r.time_s,
                stats=r.stats,
                backend=res.backend,
                device=res.device_label,
                precision=res.precision,
                request_time_s=r.time_s * b / total,
                queue_wait_s=item.queue_wait_s,
                batch_size=len(items),
                request_id=request_id,
                trace=trace,
            ))
        return responses

    def _execute_transformer(
        self, session: TransformerSession, items: Sequence[BatchItem]
    ) -> list[Response]:
        t0 = time.perf_counter()
        if session.mode == "lra-classify":
            ids_list = [item.payload["ids"] for item in items]
            rows = [a.shape[0] for a in ids_list]
            ids = np.concatenate(ids_list, axis=0)
            total = int(ids.shape[0])
            req = session.request(ids=ids)
            res = resolve_request(
                req, device=self._device, backend=session.backend
            )
            r = execute_resolution(
                res, req, ids=ids, planner=self.planner,
                metrics=self.metrics, profiler=self.profiler,
            )
        else:
            rows = [item.payload["batch"] for item in items]
            total = sum(rows)
            req = session.request(batch=total)
            res = resolve_request(
                req, device=self._device, backend=session.backend
            )
            r = execute_resolution(
                res, req, batch=total, planner=self.planner,
                metrics=self.metrics, profiler=self.profiler,
            )
        wall_s = time.perf_counter() - t0
        batch_id = next(self._batch_ids)
        plan_key = r.plan.key if r.plan is not None else None
        launches = (
            session.prepared.launches_per_forward()
            if session.mode == "lra-classify"
            else 1
        )
        self.telemetry.record_batch(
            session.name, "transformer", r.time_s,
            [i.queue_wait_s for i in items],
            backend=res.backend, device=res.device_label,
            plan_key=plan_key,
            launches=launches,
            wall_time_s=wall_s,
        )
        offsets = np.concatenate([[0], np.cumsum(rows)])
        responses = []
        for i, item in enumerate(items):
            request_id, trace = self._finalize_item(
                item, wall_s=wall_s, modelled_s=r.time_s,
                batch_id=batch_id, batch_size=len(items),
                plan_key=plan_key,
                backend=res.backend, device=res.device_label,
            )
            output = (
                r.output[offsets[i]: offsets[i + 1]]
                if r.output is not None
                else None
            )
            responses.append(Response(
                output=output,
                time_s=r.time_s,
                stats=r.stats,
                plan=r.plan,
                backend=res.backend,
                device=res.device_label,
                precision=res.precision,
                request_time_s=r.time_s * rows[i] / total,
                queue_wait_s=item.queue_wait_s,
                batch_size=len(items),
                request_id=request_id,
                trace=trace,
            ))
        return responses

    # -- reporting ------------------------------------------------------
    def summary(self) -> dict:
        """Machine-readable engine state (telemetry + plan cache)."""
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
