"""The one resolution pipeline behind every API surface.

Turning a typed request into something executable always walks the same
four stages, in order:

1. **precision parse / config merge** — either parse the request's
   Table-IV ``precision`` label into a kernel config (rejecting the
   ambiguous combination of an injected ``config`` with named
   precision parameters), or take the injected config verbatim;
2. **device resolve** — :meth:`repro.runtime.Device.resolve` turns the
   name into a validated Table-II handle (raising
   :class:`~repro.errors.DeviceError`); with a planner it must be the
   planner's device;
3. **backend resolve** — the :mod:`repro.runtime` registry pins a named
   backend or walks the priority-ordered fallback chain;
4. **plan lookup / injection** — with a planner (the serving path) the
   request class is solved once and memoized in the
   :class:`~repro.serve.cache.PlanCache`; without one (one-shot calls)
   the config from stage 1 is the plan.

:func:`resolve` runs the pipeline and returns a :class:`Resolution`;
:func:`execute` runs a resolution against its operands; :func:`run` is
the one-shot composition of the two. :mod:`repro.serve.engine` (session
intake and batched dispatch) delegates here too, so this module is the
only place precision / device / backend / plan resolution happens.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

import numpy as np

from repro.api.requests import (
    AttentionRequest,
    Request,
    Response,
    SddmmRequest,
    SpmmRequest,
    TransformerRequest,
)
from repro.core.matrix import SparseMatrix
from repro.core.precision import parse_precision
from repro.errors import ConfigError, ShapeError
from repro.formats.bcrs import BCRSMatrix
from repro.kernels.sddmm import SDDMMConfig
from repro.kernels.spmm import SpMMConfig
from repro.lowp.quantize import int_range
from repro.runtime import DEFAULT_BACKEND, Device, get_backend, resolve_backend

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.metrics import MetricsRegistry
    from repro.serve.planner import ExecutionPlanner, Plan

__all__ = [
    "Resolution",
    "bits_required",
    "execute",
    "normalize",
    "resolve",
    "run",
]

#: operand widths a request can be classified into (Table IV sides)
_LHS_WIDTHS = (4, 8, 12, 16)
_RHS_WIDTHS = (4, 8, 16)


def bits_required(values: np.ndarray, signed: bool = True) -> int:
    """Smallest Table-IV operand width that holds every value."""
    values = np.asarray(values)
    lo = int(values.min()) if values.size else 0
    hi = int(values.max()) if values.size else 0
    for bits in _LHS_WIDTHS:
        blo, bhi = int_range(bits, signed)
        if blo <= lo and hi <= bhi:
            return bits
    raise ConfigError(f"values [{lo}, {hi}] exceed 16-bit range")


@dataclass(frozen=True)
class Resolution:
    """The executable outcome of the pipeline for one request.

    ``backend`` is the resolved (for plans: winning) registry name;
    ``config`` the concrete Magicube kernel config, or ``None`` when
    the plan routes to a non-Magicube backend (whose execute path
    takes no kernel knobs); ``plan`` the memoized serving plan when a
    planner ran (``None`` for one-shot and config-injected requests).
    """

    op: str
    device: Device
    backend: str
    config: "SpMMConfig | SDDMMConfig | None"
    plan: "Plan | None"
    precision: str


# -- stage 0: operand normalization ------------------------------------

def normalize(request: Request) -> Request:
    """A copy of ``request`` with operands in canonical form.

    Dense SpMM LHS operands become prepared
    :class:`~repro.core.matrix.SparseMatrix` instances (conversion
    happens once; pass the same object to reuse its memoized layouts),
    arrays become ``np.ndarray``, and SDDMM masks are type- checked.
    Idempotent — normalizing a normalized request is free.
    """
    if isinstance(request, SpmmRequest):
        lhs = request.lhs
        if not isinstance(lhs, SparseMatrix):
            lhs = SparseMatrix.from_dense(
                np.asarray(lhs), vector_length=request.vector_length
            )
        rhs = request.rhs
        if rhs is not None:  # None = prepare-only (no operand yet)
            rhs = np.asarray(rhs)
            if rhs.ndim != 2 or rhs.shape[0] != lhs.shape[1]:
                raise ShapeError(
                    f"RHS must be ({lhs.shape[1]}, N), got {rhs.shape}"
                )
        return replace(request, lhs=lhs, rhs=rhs)
    if isinstance(request, SddmmRequest):
        topo = (
            request.mask.bcrs
            if isinstance(request.mask, SparseMatrix)
            else request.mask
        )
        if not isinstance(topo, BCRSMatrix):
            raise ShapeError("mask must be a SparseMatrix or BCRSMatrix")
        return replace(
            request,
            a=np.asarray(request.a) if request.a is not None else None,
            b=np.asarray(request.b) if request.b is not None else None,
            mask=topo,
        )
    if isinstance(request, AttentionRequest):
        if request.batch < 1:
            raise ConfigError(f"batch must be >= 1, got {request.batch}")
        if request.num_gpus < 1:
            raise ConfigError(f"num_gpus must be >= 1, got {request.num_gpus}")
        if request.num_heads % request.num_gpus != 0:
            raise ConfigError(
                f"{request.num_heads} heads do not shard over "
                f"{request.num_gpus} GPUs"
            )
        return request
    if isinstance(request, TransformerRequest):
        # imported lazily: the transformer stack reaches
        # repro.serve.topology, which this module must not drag in
        from repro.transformer.masks import MASK_ZOO
        from repro.transformer.serving import TRANSFORMER_MODES

        if request.mode not in TRANSFORMER_MODES:
            raise ConfigError(
                f"unknown transformer mode {request.mode!r}; expected one "
                f"of {TRANSFORMER_MODES}"
            )
        if request.mask_variant not in MASK_ZOO:
            raise ConfigError(
                f"unknown mask variant {request.mask_variant!r}; zoo has "
                f"{tuple(sorted(MASK_ZOO))}"
            )
        if request.batch < 1:
            raise ConfigError(f"batch must be >= 1, got {request.batch}")
        if request.seq_len % request.vector_length != 0:
            raise ConfigError(
                f"seq_len {request.seq_len} must divide by the mask "
                f"vector length {request.vector_length}"
            )
        ids = request.ids
        if ids is None:
            return request
        ids = np.asarray(ids)
        if ids.ndim != 2 or ids.shape[1] != request.seq_len:
            raise ShapeError(
                f"ids must be (B, {request.seq_len}), got {ids.shape}"
            )
        return replace(request, ids=ids)
    raise ConfigError(f"unknown request type {type(request).__name__}")


# -- stage 1: precision parse / config merge ---------------------------

def _check_clashes(request, named: dict) -> None:
    """Reject an injected config combined with named kernel params."""
    clashes = sorted(request.knobs)
    clashes += [name for name, value in named.items() if value is not None]
    if clashes:
        raise ConfigError(
            f"`config` already fixes the kernel setup; also passing "
            f"{clashes} is ambiguous"
        )


def _infer_rhs_bits(rhs: np.ndarray) -> int:
    needed = bits_required(rhs, signed=True)
    return next(w for w in _RHS_WIDTHS if w >= needed)


# -- the pipeline ------------------------------------------------------

def resolve(
    request: Request,
    *,
    device: "Device | str | None" = None,
    planner: "ExecutionPlanner | None" = None,
    backend: str | None = None,
) -> Resolution:
    """Run the resolution pipeline for one (normalized) request.

    ``device`` and ``backend`` are the caller's defaults (an engine's
    pinned device and session backend, or the one-shot defaults); the
    request's own ``device`` / ``backend`` fields win when set. With a
    ``planner`` the request class is planned and memoized (the serving
    path); without one the request must carry enough to build a
    concrete config (the one-shot path). A planner prices every plan on
    its own device: it is the default device, and a request for another
    one is refused.
    """
    request = normalize(request)
    home = planner.device if planner is not None else "A100"
    dev = Device.resolve(request.device or device or home)
    if planner is not None and dev.name != planner.device:
        raise ConfigError(
            f"request device {dev.name!r} differs from the planner's "
            f"device {planner.device!r}; plans are priced on the "
            f"planner's device only"
        )
    if isinstance(request, SpmmRequest):
        return _resolve_spmm(request, dev, planner, backend)
    if isinstance(request, SddmmRequest):
        return _resolve_sddmm(request, dev, planner, backend)
    return _resolve_modelled(request, dev, backend)


def _resolve_spmm(
    req: SpmmRequest, dev: Device, planner, default_backend
) -> Resolution:
    name = req.backend if req.backend is not None else default_backend
    if req.config is not None:
        _check_clashes(req, {"precision": req.precision, "l_signed": req.l_signed})
        cfg = req.config
        be = resolve_backend(
            name, op="spmm", device=dev,
            precision=None if planner is not None else f"L{cfg.l_bits}-R{cfg.r_bits}",
        )
        return Resolution(
            "spmm", dev, be.name, cfg, None, f"L{cfg.l_bits}-R{cfg.r_bits}"
        )
    if planner is None:
        p = parse_precision(req.precision or "L8-R8", op="spmm")
        cfg = SpMMConfig(
            l_bits=p.l_bits,
            r_bits=p.r_bits,
            l_signed=req.l_signed if req.l_signed is not None else True,
            **req.knobs,
        )
        be = resolve_backend(
            name, op="spmm", device=dev, precision=f"L{cfg.l_bits}-R{cfg.r_bits}"
        )
        return Resolution(
            "spmm", dev, be.name, cfg, None, f"L{cfg.l_bits}-R{cfg.r_bits}"
        )
    # serving path: plan lookup through the planner's memoized cache
    from repro.serve.planner import Objective

    if req.rhs is None:
        raise ConfigError("SpmmRequest.rhs is required to resolve a plan")
    be = resolve_backend(name, op="spmm", device=dev)
    lhs: SparseMatrix = req.lhs
    m, k = lhs.shape
    if req.precision is not None:
        p = parse_precision(req.precision, op="spmm")
        obj = Objective.fixed(p.l_bits, p.r_bits)
    else:
        l_bits = req.l_bits or bits_required(lhs.bcrs.values, signed=True)
        r_bits = req.r_bits or _infer_rhs_bits(req.rhs)
        obj = (req.objective or Objective.latency()).with_min_bits(l_bits, r_bits)
    plan = planner.plan_spmm(
        m, k, req.rhs.shape[1], lhs.vector_length, lhs.sparsity, obj,
        backend=be.name,
    )
    cfg = None
    if plan.is_magicube:
        overrides = dict(req.knobs)
        if req.l_signed is not None:
            overrides["l_signed"] = req.l_signed
        cfg = plan.spmm_config(**overrides)
    return Resolution("spmm", dev, plan.backend, cfg, plan, plan.precision)


def _resolve_sddmm(
    req: SddmmRequest, dev: Device, planner, default_backend
) -> Resolution:
    name = req.backend if req.backend is not None else default_backend
    if req.config is not None:
        _check_clashes(
            req, {"precision": req.precision, "output_format": req.output_format}
        )
        cfg = req.config
        be = resolve_backend(
            name, op="sddmm", device=dev,
            precision=None if planner is not None else f"L{cfg.l_bits}-R{cfg.r_bits}",
        )
        return Resolution(
            "sddmm", dev, be.name, cfg, None, f"L{cfg.l_bits}-R{cfg.r_bits}"
        )
    if planner is None:
        p = parse_precision(req.precision or "L8-R8", op="sddmm")
        cfg = SDDMMConfig(
            l_bits=p.l_bits,
            r_bits=p.r_bits,
            output_format=req.output_format or "bcrs",
            **req.knobs,
        )
        be = resolve_backend(
            name, op="sddmm", device=dev, precision=f"L{cfg.l_bits}-R{cfg.r_bits}"
        )
        return Resolution(
            "sddmm", dev, be.name, cfg, None, f"L{cfg.l_bits}-R{cfg.r_bits}"
        )
    # serving path
    from repro.serve.planner import Objective

    if req.a is None or req.b is None:
        raise ConfigError("SddmmRequest.a and .b are required to resolve a plan")
    be = resolve_backend(name, op="sddmm", device=dev)
    topo: BCRSMatrix = req.mask
    rows, cols = topo.shape
    if req.precision is not None:
        p = parse_precision(req.precision, op="sddmm")
        obj = Objective.fixed(p.l_bits, p.r_bits)
    else:
        l_bits = req.l_bits or bits_required(req.a, signed=True)
        r_bits = req.r_bits or bits_required(req.b, signed=True)
        obj = (req.objective or Objective.latency()).with_min_bits(l_bits, r_bits)
    plan = planner.plan_sddmm(
        rows, cols, req.a.shape[1], topo.vector_length, topo.sparsity, obj,
        backend=be.name,
    )
    cfg = None
    if plan.is_magicube:
        cfg = plan.sddmm_config(
            output_format=req.output_format or "bcrs", **req.knobs
        )
    return Resolution("sddmm", dev, plan.backend, cfg, plan, plan.precision)


def _resolve_modelled(
    req: "AttentionRequest | TransformerRequest", dev: Device, default_backend
) -> Resolution:
    """Attention and transformer requests price (and run) the Magicube
    attention pipeline, so only a Magicube-family backend resolves."""
    name = req.backend
    if name is None:
        name = (
            default_backend
            if default_backend is not None
            and default_backend.startswith(("magicube", "fastpath"))
            else DEFAULT_BACKEND
        )
    if not name.startswith(("magicube", "fastpath")):
        raise ConfigError(
            f"{req.op} requests run the Magicube attention pipeline; "
            f"backend {name!r} cannot plan it, so it cannot serve it"
        )
    precision = f"L{req.scheme[0]}-R{req.scheme[1]}"
    return Resolution(req.op, dev, name, None, None, precision)


# -- execution ---------------------------------------------------------

def execute(
    res: Resolution,
    request: Request,
    *,
    rhs: np.ndarray | None = None,
    ids: np.ndarray | None = None,
    batch: int | None = None,
    planner: "ExecutionPlanner | None" = None,
    metrics: "MetricsRegistry | None" = None,
    profiler=None,
) -> Response:
    """Run a resolution against its request's operands.

    ``rhs`` / ``ids`` / ``batch`` override the request's own operand —
    the micro-batcher's coalesced launches execute one resolution
    against the concatenated batch. ``planner`` routes the attention
    latency model and the transformer kernel launches through cached
    serving plans (the engine path). ``metrics`` receives the measured
    kernel wall time (the global registry when omitted) — the signal
    backend speedups show up in. ``profiler`` (a
    :class:`repro.obs.profile.Profiler`) samples the backend
    ``execute`` call under the ``backend-execute`` phase.
    """
    if res.op == "spmm":
        the_rhs = rhs if rhs is not None else request.rhs
        if the_rhs is None:
            raise ConfigError("SpmmRequest.rhs is required to execute")
        r = _timed_execute(
            res, metrics, profiler,
            lhs=request.lhs, rhs=the_rhs, scale=request.scale,
        )
    elif res.op == "sddmm":
        if request.a is None or request.b is None:
            raise ConfigError("SddmmRequest.a and .b are required to execute")
        r = _timed_execute(
            res, metrics, profiler, a=request.a, b=request.b, mask=request.mask
        )
    elif res.op == "transformer":
        return _execute_transformer(
            res, request, ids=ids, batch=batch, planner=planner
        )
    else:
        return _execute_attention(res, request, batch=batch, planner=planner)
    return Response(
        output=r.output,
        time_s=r.time_s,
        tops=r.tops,
        stats=r.stats,
        plan=res.plan,
        backend=res.backend,
        device=res.device.name,
        precision=res.precision,
    )


def _timed_execute(res: Resolution, metrics, profiler=None, **operands):
    """Run the backend and observe the measured wall time.

    ``repro_kernel_wall_seconds`` is the *measured* counterpart of the
    modelled ``repro_request_modelled_seconds`` — it is what makes a
    faster backend (e.g. ``fastpath-vectorized``) visible in telemetry.
    The backend receives ``config=res.config``: the Magicube kernel
    config, or ``None`` for a baseline, which takes no kernel knobs.
    The histogram uses the sub-microsecond ``KERNEL_WALL_BUCKETS_S``
    layout (passed here because the one-shot path's registry may never
    have seen ``declare_standard``): fastpath kernels finish in
    hundreds of nanoseconds, below the default buckets' lowest edge.
    """
    from time import perf_counter

    from repro.obs.metrics import get_registry
    from repro.obs.names import KERNEL_WALL, KERNEL_WALL_BUCKETS_S

    execute = get_backend(res.backend).execute
    t0 = perf_counter()
    if profiler:
        with profiler.sample("backend-execute"):
            r = execute(res.op, res.device, config=res.config, **operands)
    else:
        r = execute(res.op, res.device, config=res.config, **operands)
    wall = perf_counter() - t0
    registry = metrics if metrics is not None else get_registry()
    registry.histogram(
        KERNEL_WALL,
        labels={"op": res.op, "backend": res.backend},
        buckets=KERNEL_WALL_BUCKETS_S,
    ).observe(wall)
    return r


def _execute_attention(
    res: Resolution, req: AttentionRequest, *, batch, planner
) -> Response:
    # imported lazily: repro.transformer.inference imports
    # repro.serve.topology, so a top-level import here would cycle
    from repro.transformer.inference import (
        Backend as InferenceBackend,
        InferenceConfig,
        estimate_latency,
    )

    cfg = InferenceConfig(
        seq_len=req.seq_len,
        num_heads=req.num_heads,
        batch=batch if batch is not None else req.batch,
        sparsity=req.sparsity,
        num_layers=req.num_layers,
        d_head=req.d_head,
        vector_length=req.vector_length,
        device=res.device.name,
    )
    ib = InferenceBackend("magicube", *req.scheme)
    if req.num_gpus > 1:
        # tensor-parallel deployment: each GPU runs the heads/g shard
        # (still planned through the serving cache), plus Megatron-
        # style per-layer all-reduces over NVLink
        from repro.transformer.distributed import (
            TensorParallelConfig,
            estimate_latency_distributed,
        )

        dist = estimate_latency_distributed(
            TensorParallelConfig(base=cfg, num_gpus=req.num_gpus),
            ib,
            planner=planner,
            plan_backend=res.backend,
        )
        return Response(
            output=None,
            time_s=dist["total_s"],
            stats=dist,
            backend=res.backend,
            device=res.device.name,
            precision=res.precision,
        )
    lat = estimate_latency(cfg, ib, planner=planner, plan_backend=res.backend)
    return Response(
        output=None,
        time_s=lat.total_s,
        stats=lat,
        backend=res.backend,
        device=res.device.name,
        precision=res.precision,
    )


def _execute_transformer(
    res: Resolution, req: TransformerRequest, *, ids, batch, planner
) -> Response:
    # imported lazily: repro.transformer.serving reaches
    # repro.serve.topology via the inference latency model
    from repro.transformer.serving import (
        TransformerSpec,
        modelled_latency,
        prepare_transformer,
    )

    prepared = prepare_transformer(TransformerSpec.of(req))
    scheme = (int(req.scheme[0]), int(req.scheme[1]))
    if req.mode in ("prefill", "decode"):
        b = batch if batch is not None else req.batch
        lat = modelled_latency(
            prepared, req.mode, b, scheme, res.device.name,
            planner=planner, plan_backend=res.backend,
        )
        return Response(
            output=None,
            time_s=lat.total_s,
            stats=lat,
            backend=res.backend,
            device=res.device.name,
            precision=res.precision,
        )
    the_ids = ids if ids is not None else req.ids
    if the_ids is None:
        raise ConfigError(
            "TransformerRequest.ids is required to execute lra-classify"
        )
    the_ids = np.asarray(the_ids)
    logits, plans = prepared.forward(
        the_ids, scheme=scheme, backend=res.backend, planner=planner
    )
    lat = modelled_latency(
        prepared, "prefill", the_ids.shape[0], scheme, res.device.name,
        planner=planner, plan_backend=res.backend,
    )
    return Response(
        output=logits,
        time_s=lat.total_s,
        stats=lat,
        # the AV SpMM plan is the representative routed plan (the
        # SDDMM plan shares its key topology)
        plan=plans[1] if plans else None,
        backend=res.backend,
        device=res.device.name,
        precision=res.precision,
        batch_size=int(the_ids.shape[0]),
    )


def run(
    request: Request,
    *,
    device: "Device | str | None" = None,
    planner: "ExecutionPlanner | None" = None,
    backend: str | None = None,
) -> Response:
    """One-shot: resolve a request and execute it immediately — no
    engine, no batching, same pipeline::

        from repro import api

        r = api.run(api.SpmmRequest(lhs=A, rhs=B, precision="L8-R8"))
        r.output, r.time_s, r.tops
    """
    request = normalize(request)
    res = resolve(request, device=device, planner=planner, backend=backend)
    return execute(res, request, planner=planner)
